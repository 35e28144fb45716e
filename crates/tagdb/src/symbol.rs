//! Interned indicator names.
//!
//! Every quality indicator name ("source", "creation_time", …) is drawn
//! from a small vocabulary — the indicator dictionary — yet the seed
//! implementation stored a fresh `String` per tag per cell, so a 100k-row
//! relation with two tags per cell carried 200k heap copies of the same
//! handful of names, and every tag lookup was a byte-wise string compare.
//!
//! [`Symbol`] replaces that: a process-wide interner maps each distinct
//! name to a `u32` id backed by one shared `Arc<str>`. Symbols compare
//! and hash by id (O(1)), clone by `Arc` refcount bump, and still order
//! lexicographically by name so the sorted-tag-vector invariant of
//! [`crate::cell::QualityCell`] is unchanged.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An interned indicator name.
///
/// Equality and hashing are by interner id; ordering is lexicographic by
/// name (with an id-equality fast path — sound because the interner is a
/// bijection between ids and names). Dereferences to `str`, so existing
/// code that treated indicator names as strings keeps working.
#[derive(Clone)]
pub struct Symbol {
    id: u32,
    name: Arc<str>,
}

struct Interner {
    map: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its canonical symbol. Repeated calls with
    /// the same string return id-equal symbols sharing one allocation.
    pub fn intern(name: &str) -> Symbol {
        {
            let guard = interner().read();
            // `Arc<str>: Borrow<str>` lets the map look up by `&str`
            // without allocating.
            if let Some(&id) = guard.map.get(name) {
                return Symbol {
                    id,
                    name: Arc::clone(&guard.names[id as usize]),
                };
            }
        }
        let mut guard = interner().write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = guard.map.get(name) {
            return Symbol {
                id,
                name: Arc::clone(&guard.names[id as usize]),
            };
        }
        let arc: Arc<str> = Arc::from(name);
        let id = u32::try_from(guard.names.len()).expect("interner overflow");
        guard.names.push(Arc::clone(&arc));
        guard.map.insert(Arc::clone(&arc), id);
        Symbol { id, name: arc }
    }

    /// The interned name.
    pub fn as_str(&self) -> &str {
        &self.name
    }
}

impl PartialEq for Symbol {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for Symbol {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.name.as_ref().cmp(other.name.as_ref())
    }
}

impl Deref for Symbol {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.name
    }
}

impl AsRef<str> for Symbol {
    #[inline]
    fn as_ref(&self) -> &str {
        &self.name
    }
}

// NOTE: deliberately NO `impl Borrow<str> for Symbol` — Symbol hashes by
// id, `str` hashes by bytes, and `Borrow` demands those agree.

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.name.as_ref() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.name.as_ref() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.name.as_ref() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.name.as_ref()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.name.as_ref()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.name.as_ref()
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        s.clone()
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.name.as_ref().to_owned()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Symbol {
    fn to_json(&self) -> serde::Json {
        serde::Json::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Symbol {
    fn from_json(v: &serde::Json) -> serde::Result<Self> {
        v.as_str("Symbol").map(Symbol::intern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn intern_dedupes_and_shares() {
        let a = Symbol::intern("source");
        let b = Symbol::intern("source");
        assert_eq!(a.id, b.id);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.name, &b.name));
        let c = Symbol::intern("age");
        assert_ne!(a, c);
    }

    #[test]
    fn orders_by_name_not_id() {
        // intern in reverse-lexicographic order so ids disagree with names
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z);
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn compares_with_strings() {
        let s = Symbol::intern("source");
        assert_eq!(s, "source");
        assert_eq!("source", s);
        assert_eq!(s, String::from("source"));
        assert_ne!(s, "age");
        assert_eq!(&*s, "source");
        assert_eq!(s.len(), 6); // Deref<Target=str>
    }

    #[test]
    fn equal_symbols_hash_equal() {
        let a = Symbol::intern("creation_time");
        let b = Symbol::intern("creation_time");
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn serde_roundtrip() {
        let s = Symbol::intern("media");
        let json = s.to_json();
        let back = Symbol::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("concurrent_test").id))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
