//! The twelve queries Q1–Q12 of Section IV, used throughout the paper's experimental
//! evaluation (Table II and Figures 2–5).
//!
//! Each query is stored as its practical-syntax text (as printed in the paper, with
//! line breaks joined) and can be parsed with [`QueryId::clause`] or compiled into the formal
//! language with [`QueryId::compiled`].  Queries Q10–Q12 contain a temporal navigation operator
//! with a numerical occurrence indicator; [`QueryId::with_temporal_bound`] rebuilds them with a
//! different upper bound, which is what the Figure 4 experiment sweeps.

use crate::error::Result;
use crate::parser::{parse_match, MatchClause};
use crate::rewrite::{rewrite_match, RewrittenQuery};

/// Identifier of one of the paper's benchmark queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryId {
    /// Q1: all people.
    Q1,
    /// Q2: low-risk people.
    Q2,
    /// Q3: low-risk people at time 1.
    Q3,
    /// Q4: low-risk people before time 10.
    Q4,
    /// Q5: low-risk people meeting high-risk people.
    Q5,
    /// Q6: the state immediately before a positive test.
    Q6,
    /// Q7: room visited immediately before a positive test.
    Q7,
    /// Q8: rooms visited at or before the time of a positive test.
    Q8,
    /// Q9: high-risk people who met someone who later tested positive.
    Q9,
    /// Q10: high-risk people who met someone who tested positive up to one hour earlier.
    Q10,
    /// Q11: high-risk people in close contact with an infected person via a shared room.
    Q11,
    /// Q12: union of the meets- and room-based close-contact definitions.
    Q12,
}

impl QueryId {
    /// All query identifiers in order.
    pub const ALL: [QueryId; 12] = [
        QueryId::Q1,
        QueryId::Q2,
        QueryId::Q3,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6,
        QueryId::Q7,
        QueryId::Q8,
        QueryId::Q9,
        QueryId::Q10,
        QueryId::Q11,
        QueryId::Q12,
    ];

    /// The query name as used in the paper, e.g. `"Q7"`.
    pub fn name(self) -> &'static str {
        match self {
            QueryId::Q1 => "Q1",
            QueryId::Q2 => "Q2",
            QueryId::Q3 => "Q3",
            QueryId::Q4 => "Q4",
            QueryId::Q5 => "Q5",
            QueryId::Q6 => "Q6",
            QueryId::Q7 => "Q7",
            QueryId::Q8 => "Q8",
            QueryId::Q9 => "Q9",
            QueryId::Q10 => "Q10",
            QueryId::Q11 => "Q11",
            QueryId::Q12 => "Q12",
        }
    }

    /// True if the query uses temporal navigation (`NEXT`/`PREV`); queries without
    /// temporal navigation (Q1–Q5) are evaluated purely on the interval representation
    /// and their results stay temporally coalesced (Section VI).
    pub fn uses_temporal_navigation(self) -> bool {
        !matches!(self, QueryId::Q1 | QueryId::Q2 | QueryId::Q3 | QueryId::Q4 | QueryId::Q5)
    }

    /// The query text in the practical syntax of Section IV.
    pub fn text(self) -> &'static str {
        match self {
            QueryId::Q1 => "MATCH (x:Person) ON contact_tracing",
            QueryId::Q2 => "MATCH (x:Person {risk = 'low'}) ON contact_tracing",
            QueryId::Q3 => "MATCH (x:Person {risk = 'low' AND time = '1'}) ON contact_tracing",
            QueryId::Q4 => "MATCH (x:Person {risk = 'low' AND time < '10'}) ON contact_tracing",
            QueryId::Q5 => {
                "MATCH (x:Person {risk = 'low'})-[z:meets]->(y:Person {risk = 'high'}) \
                 ON contact_tracing"
            }
            QueryId::Q6 => "MATCH (x:Person {test = 'pos'})-/PREV/-(y:Person) ON contact_tracing",
            QueryId::Q7 => {
                "MATCH (x:Person {test = 'pos'})-/PREV/FWD/:visits/FWD/-(z:Room) \
                 ON contact_tracing"
            }
            QueryId::Q8 => {
                "MATCH (x:Person {test = 'pos'})-/PREV*/FWD/:visits/FWD/-(z:Room) \
                 ON contact_tracing"
            }
            QueryId::Q9 => {
                "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-({test = 'pos'}) \
                 ON contact_tracing"
            }
            QueryId::Q10 => {
                "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/PREV[0,12]/-({test = 'pos'}) \
                 ON contact_tracing"
            }
            QueryId::Q11 => {
                "MATCH (x:Person {risk = 'high'})-\
                 /FWD/:visits/FWD/:Room/BWD/:visits/BWD/NEXT[0,12]/-({test = 'pos'}) \
                 ON contact_tracing"
            }
            QueryId::Q12 => {
                "MATCH (x:Person {risk = 'high'})-\
                 /(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)/NEXT[0,12]/-\
                 ({test = 'pos'}) ON contact_tracing"
            }
        }
    }

    /// Parses the query into a [`MatchClause`].
    pub fn clause(self) -> MatchClause {
        parse_match(self.text()).expect("the built-in queries always parse")
    }

    /// Parses and rewrites the query into the formal language.
    pub fn compiled(self) -> RewrittenQuery {
        rewrite_match(&self.clause()).expect("the built-in queries always rewrite")
    }

    /// For Q10–Q12, returns the query with the upper bound of its temporal navigation
    /// indicator replaced by `m` (the x-axis of Figure 4).  Other queries are returned
    /// unchanged.
    pub fn with_temporal_bound(self, m: u32) -> Result<MatchClause> {
        let text = match self {
            QueryId::Q10 => self.text().replace("PREV[0,12]", &format!("PREV[0,{m}]")),
            QueryId::Q11 | QueryId::Q12 => {
                self.text().replace("NEXT[0,12]", &format!("NEXT[0,{m}]"))
            }
            _ => self.text().to_owned(),
        };
        parse_match(&text)
    }
}

/// Name of the reachability workload: transitive contact chains through the
/// structural Kleene closure (it has no Q-number in the paper).
pub const REACH_QUERY_NAME: &str = "REACH";

/// Text of the [`REACH_QUERY_NAME`] workload.
pub const REACH_QUERY_TEXT: &str =
    "MATCH (x:Person {risk = 'high'})-/(FWD/:meets/FWD)*/-(y:Person) ON contact_tracing";

/// Name of the recurring-contact workload: chains of meetings each followed by a
/// step forward in time, ending on a positive test — mixed structural/temporal
/// repetition, executed by the engine's time-aware closure.
pub const RECUR_QUERY_NAME: &str = "RECUR";

/// Text of the [`RECUR_QUERY_NAME`] workload.
pub const RECUR_QUERY_TEXT: &str = "MATCH (x:Person {risk = 'high'})\
                                    -/(FWD/:meets/FWD/NEXT)*/NEXT*/-({test = 'pos'}) \
                                    ON contact_tracing";

/// The two closure workloads as `(name, text)` pairs: REACH, then RECUR.
pub const CLOSURE_QUERIES: [(&str, &str); 2] =
    [(REACH_QUERY_NAME, REACH_QUERY_TEXT), (RECUR_QUERY_NAME, RECUR_QUERY_TEXT)];

/// All twelve queries as `(id, parsed clause)` pairs.
pub fn all_queries() -> Vec<(QueryId, MatchClause)> {
    QueryId::ALL.iter().map(|&id| (id, id.clause())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{classify, Fragment};

    #[test]
    fn every_query_parses_and_rewrites() {
        for (id, clause) in all_queries() {
            assert!(!clause.parts.is_empty(), "{} has no parts", id.name());
            let compiled = id.compiled();
            assert_eq!(compiled.graph, "contact_tracing");
            // None of the benchmark queries needs path conditions; all are evaluable
            // in polynomial time over TPGs.
            let fragment = classify(&compiled.path);
            assert!(
                fragment.is_sub_fragment_of(Fragment::Noi),
                "{} classified as {fragment}",
                id.name()
            );
        }
    }

    #[test]
    fn variable_bindings_match_the_paper() {
        assert_eq!(QueryId::Q1.clause().variables(), vec!["x"]);
        assert_eq!(QueryId::Q5.clause().variables(), vec!["x", "z", "y"]);
        assert_eq!(QueryId::Q6.clause().variables(), vec!["x", "y"]);
        assert_eq!(QueryId::Q7.clause().variables(), vec!["x", "z"]);
        assert_eq!(QueryId::Q8.clause().variables(), vec!["x", "z"]);
        // Q9–Q12 deliberately bind only x (contacts are not stored).
        for id in [QueryId::Q9, QueryId::Q10, QueryId::Q11, QueryId::Q12] {
            assert_eq!(id.clause().variables(), vec!["x"], "{}", id.name());
        }
    }

    #[test]
    fn temporal_navigation_split_matches_section_vi() {
        let without: Vec<_> =
            QueryId::ALL.iter().filter(|q| !q.uses_temporal_navigation()).collect();
        assert_eq!(without.len(), 5);
        assert!(QueryId::Q8.uses_temporal_navigation());
        assert!(!QueryId::Q5.uses_temporal_navigation());
    }

    #[test]
    fn temporal_bound_substitution() {
        let q10 = QueryId::Q10.with_temporal_bound(48).unwrap();
        let text = format!("{:?}", q10);
        assert!(text.contains("48"));
        let q12 = QueryId::Q12.with_temporal_bound(4).unwrap();
        assert!(format!("{q12:?}").contains("4"));
        // Queries without indicators are returned unchanged.
        let q1 = QueryId::Q1.with_temporal_bound(99).unwrap();
        assert_eq!(q1, QueryId::Q1.clause());
    }

    #[test]
    fn closure_queries_parse_and_rewrite() {
        for (name, text) in CLOSURE_QUERIES {
            let clause = parse_match(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let rewritten = rewrite_match(&clause).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(rewritten.graph, "contact_tracing", "{name}");
        }
    }
}
