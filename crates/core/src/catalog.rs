//! The Appendix-A candidate quality-attribute catalog.
//!
//! The paper's Appendix A lists candidate quality attributes "resulting
//! from survey responses from several hundred data users" (Wang &
//! Guarrascio, CISL-91-06) and is used in Step 2 "to stimulate thinking by
//! the design team". The scan of the paper available to this reproduction
//! omits the appendix body, so the catalog below is **reconstructed**
//! (see DESIGN.md §3): it contains every attribute named in the paper's
//! body plus the standard Wang-school dimension inventory, grouped by
//! [`ConcernScope`] exactly as §4 discusses (data / system / service /
//! user). The catalog's methodological function — non-orthogonal,
//! non-exhaustive, a stimulus rather than a standard — is preserved.

use crate::taxonomy::{AttributeKind, ConcernScope, QualityAttribute};
use std::collections::BTreeMap;

/// The candidate-attribute catalog used by Step 2.
#[derive(Debug, Clone)]
pub struct CandidateCatalog {
    attrs: BTreeMap<String, QualityAttribute>,
}

impl CandidateCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        CandidateCatalog {
            attrs: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) an attribute. The design team "may choose to
    /// consider additional parameters not listed".
    pub fn add(&mut self, attr: QualityAttribute) {
        self.attrs.insert(attr.name.clone(), attr);
    }

    /// Looks up an attribute by name.
    pub fn get(&self, name: &str) -> Option<&QualityAttribute> {
        self.attrs.get(name)
    }

    /// All attributes, ordered by name.
    pub fn all(&self) -> impl Iterator<Item = &QualityAttribute> {
        self.attrs.values()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attributes of one kind.
    pub fn by_kind(&self, kind: AttributeKind) -> Vec<&QualityAttribute> {
        self.attrs.values().filter(|a| a.kind == kind).collect()
    }

    /// Pairs `(a, b)` with `a` declaring `b` as related — the Premise-1.2
    /// non-orthogonality graph.
    pub fn non_orthogonal_pairs(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        for a in self.attrs.values() {
            for r in &a.related {
                out.push((a.name.as_str(), r.as_str()));
            }
        }
        out
    }

    /// The full reconstructed Appendix-A catalog.
    pub fn appendix_a() -> Self {
        let mut c = CandidateCatalog::new();
        use ConcernScope::{Data, Service, System, User};

        let p = QualityAttribute::parameter;
        let i = QualityAttribute::indicator;

        // --- Dimensions named in the paper body -------------------------
        c.add(p("timeliness", Data, "how current the data is for the task at hand")
            .related_to("volatility")
            .related_to("age")
            .related_to("currency"));
        c.add(p("credibility", Data, "believability of the data given its manufacture")
            .related_to("source credibility")
            .related_to("accuracy"));
        c.add(p("accuracy", Data, "conformity of the recorded value to the real-world value")
            .related_to("precision"));
        c.add(p("completeness", Data, "extent to which required data is present")
            .related_to("coverage"));
        c.add(p("interpretability", Data, "ease of understanding what the data means")
            .related_to("understandability"));
        c.add(p("cost", Service, "price paid to obtain or hold the data")
            .related_to("value"));
        c.add(p("volatility", Data, "rate at which the true value changes")
            .related_to("timeliness"));
        c.add(p("source credibility", Data, "trustworthiness of the data's origin"));
        c.add(p("inspection", Data, "verification/certification requirements on the data"));
        c.add(i("age", Data, "time elapsed since the datum was created"));
        c.add(i("creation time", Data, "when the datum was manufactured"));
        c.add(i("source", Data, "which organization/feed/department produced the datum"));
        c.add(i("collection method", Data, "device or procedure that captured the datum"));
        c.add(i("analyst name", Data, "author of a report; proxies credibility"));
        c.add(i("media", System, "storage format: ASCII, bitmap, postscript, ..."));
        c.add(i("update frequency", Data, "how often the datum is refreshed"));
        c.add(p("resolution of graphics", System, "display fidelity of graphical data"));
        c.add(p("clear data responsibility", Service, "an accountable owner for the data exists"));
        c.add(p("past experience", User, "the user's prior familiarity with this data"));
        c.add(p("retrieval time", System, "latency to obtain the data")
            .related_to("accessibility"));

        // --- Intrinsic quality ------------------------------------------
        c.add(p("believability", Data, "extent to which data is accepted as true")
            .related_to("credibility"));
        c.add(p("reputation", Data, "standing of the data/source among users"));
        c.add(p("objectivity", Data, "data is unbiased and impartial"));
        c.add(p("precision", Data, "granularity/exactness of recorded values"));
        c.add(p("consistency", Data, "values agree across the database and over time")
            .related_to("representational consistency"));
        c.add(p("reliability", Data, "data can be depended upon across uses"));
        c.add(p("freedom from bias", Data, "absence of systematic distortion"));
        c.add(p("correctness", Data, "data is free of error").related_to("accuracy"));
        c.add(p("unambiguity", Data, "each value admits one reading"));

        // --- Contextual quality ------------------------------------------
        c.add(p("relevancy", Data, "applicability to the task at hand"));
        c.add(p("value-added", Data, "use of the data confers advantage"));
        c.add(p("appropriate amount", Data, "neither too little nor too much data"));
        c.add(p("coverage", Data, "breadth of the domain the data spans"));
        c.add(p("currency", Data, "the data reflects the present state")
            .related_to("timeliness"));
        c.add(p("importance", User, "weight the user assigns to this data"));
        c.add(p("usefulness", User, "degree to which the data serves user goals"));
        c.add(p("usability", User, "ease of applying the data to a task"));
        c.add(p("sufficiency", Data, "data suffices for the decision at hand"));
        c.add(p("comprehensiveness", Data, "all facets of the subject are covered"));

        // --- Representational quality ------------------------------------
        c.add(p("understandability", Data, "data is easily comprehended"));
        c.add(p("readability", Data, "data presentation can be read fluently"));
        c.add(p("clarity", Data, "data is presented without obscurity"));
        c.add(p("conciseness", Data, "data is compactly represented"));
        c.add(p("representational consistency", Data, "same format used throughout"));
        c.add(p("format flexibility", System, "data adapts to multiple presentations"));
        c.add(p("interoperability", System, "data combines readily with other data"));
        c.add(i("unit of measure", Data, "the measurement unit values are recorded in"));
        c.add(i("language", Data, "natural language the data is expressed in"));
        c.add(i("encoding", System, "character/binary encoding of stored values"));

        // --- Accessibility & security -------------------------------------
        c.add(p("accessibility", System, "data is available or easily retrievable"));
        c.add(p("access security", System, "access is restricted to authorized users"));
        c.add(p("availability", System, "fraction of time the data can be reached"));
        c.add(p("ease of operation", System, "data is easily managed and manipulated"));
        c.add(p("privacy", Service, "personal data is protected from disclosure"));
        c.add(p("confidentiality", Service, "sensitive data is shielded from others"));
        c.add(i("access permissions", System, "ACL in force for the datum"));

        // --- Manufacturing-process indicators ------------------------------
        c.add(i("collector", Data, "person/system that performed the capture"));
        c.add(i("entry method", Data, "keyed, scanned, voice-decoded, imported"));
        c.add(i("entry time", Data, "when the datum entered this database"));
        c.add(i("last update time", Data, "most recent modification instant"));
        c.add(i("update count", Data, "number of times the datum was revised"));
        c.add(i("verification status", Data, "whether/(how) the datum was verified"));
        c.add(i("certification", Data, "formal certification applied, if any"));
        c.add(i("processing history", Data, "transformations applied since capture"));
        c.add(i("intermediate sources", Data, "databases consulted in deriving the datum"));
        c.add(i("originating database", Data, "polygen originating source set"));
        c.add(i("instrument error rate", Data, "known error rate of the capture device"));
        c.add(i("sampling method", Data, "how the measured population was sampled"));
        c.add(i("estimation flag", Data, "whether the value is an estimate"));
        c.add(i("confidence interval", Data, "statistical uncertainty of the value"));
        c.add(i("audit trail reference", Data, "pointer into the electronic audit trail"));

        // --- Service & organizational --------------------------------------
        c.add(p("support", Service, "help is available for interpreting the data"));
        c.add(p("maintainability", Service, "data upkeep is organizationally ensured"));
        c.add(p("traceability", Service, "data can be traced to its origin")
            .related_to("source"));
        c.add(p("compatibility", Service, "data conforms to exchange standards"));
        c.add(p("auditability", Service, "quality can be independently reviewed"));
        c.add(p("ownership clarity", Service, "who owns the data is documented")
            .related_to("clear data responsibility"));

        // --- System ----------------------------------------------------------
        c.add(p("response time", System, "system latency for typical queries")
            .related_to("retrieval time"));
        c.add(p("robustness", System, "data survives system faults uncorrupted"));
        c.add(p("portability", System, "data moves across platforms losslessly"));
        c.add(i("storage location", System, "physical/logical placement of the datum"));
        c.add(i("backup status", System, "when the datum was last backed up"));

        // --- User ---------------------------------------------------------
        c.add(p("ease of understanding", User, "user can grasp the data unaided"));
        c.add(p("trust", User, "user's subjective confidence in the data")
            .related_to("believability"));
        c.add(p("familiarity", User, "user has worked with this data before")
            .related_to("past experience"));
        c
    }
}

impl Default for CandidateCatalog {
    fn default() -> Self {
        CandidateCatalog::appendix_a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendix_a_is_substantial() {
        let c = CandidateCatalog::appendix_a();
        assert!(c.len() >= 70, "catalog too small: {}", c.len());
    }

    #[test]
    fn paper_named_attributes_present() {
        let c = CandidateCatalog::appendix_a();
        for name in [
            "timeliness",
            "credibility",
            "cost",
            "volatility",
            "age",
            "creation time",
            "source",
            "collection method",
            "analyst name",
            "media",
            "inspection",
            "completeness",
            "accuracy",
            "interpretability",
            "resolution of graphics",
            "clear data responsibility",
            "past experience",
        ] {
            assert!(c.get(name).is_some(), "missing `{name}`");
        }
    }

    #[test]
    fn both_kinds_and_all_scopes_present() {
        let c = CandidateCatalog::appendix_a();
        assert!(!c.by_kind(AttributeKind::Parameter).is_empty());
        assert!(!c.by_kind(AttributeKind::Indicator).is_empty());
        for scope in [
            ConcernScope::Data,
            ConcernScope::System,
            ConcernScope::Service,
            ConcernScope::User,
        ] {
            assert!(c.all().any(|a| a.scope == scope), "no attrs in {scope}");
        }
    }

    #[test]
    fn premise_1_2_pairs_exist() {
        let c = CandidateCatalog::appendix_a();
        let pairs = c.non_orthogonal_pairs();
        // the paper's own example pair
        assert!(pairs.contains(&("timeliness", "volatility")));
        assert!(pairs.len() >= 10);
    }

    #[test]
    fn catalog_is_extensible() {
        let mut c = CandidateCatalog::appendix_a();
        let before = c.len();
        c.add(QualityAttribute::parameter(
            "opportunity cost",
            ConcernScope::User,
            "competitive value of the information (the trader's cost measure)",
        ));
        assert_eq!(c.len(), before + 1);
        assert!(c.get("opportunity cost").is_some());
    }

    #[test]
    fn lookup_and_iteration_ordered() {
        let c = CandidateCatalog::appendix_a();
        let names: Vec<&str> = c.all().map(|a| a.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
