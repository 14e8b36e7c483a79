//! Serialisable reports of protocol runs, consumed by the experiment
//! binaries and recorded in `EXPERIMENTS.md`.

use crate::comm::CommunicationCost;
use crate::faults::FaultReport;
use serde::{Deserialize, Serialize};

/// Outcome of one matching protocol run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchingProtocolReport {
    /// Protocol name (e.g. `"maximum-matching"`, `"subsampled"`).
    pub protocol: String,
    /// Number of machines.
    pub k: usize,
    /// Vertices of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
    /// Size of the matching output by the coordinator.
    pub matching_size: usize,
    /// Size of the best matching known for the input (exact when feasible,
    /// otherwise a certified lower bound such as a planted matching).
    pub reference_matching_size: usize,
    /// `reference_matching_size / matching_size` (∞ clamped to a large value
    /// when the output is empty but the reference is not).
    pub approximation_ratio: f64,
    /// Communication accounting for the run.
    pub communication: CommunicationCost,
    /// Fault accounting when the run executed under a fault plan
    /// (`null`/`None` for fault-free runs).
    pub faults: Option<FaultReport>,
}

impl MatchingProtocolReport {
    /// Computes the approximation ratio, guarding against division by zero.
    pub fn ratio(reference: usize, achieved: usize) -> f64 {
        if achieved == 0 {
            if reference == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            reference as f64 / achieved as f64
        }
    }
}

/// Outcome of one vertex-cover protocol run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VertexCoverProtocolReport {
    /// Protocol name (e.g. `"peeling"`, `"grouped"`, `"local-cover"`).
    pub protocol: String,
    /// Number of machines.
    pub k: usize,
    /// Vertices of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
    /// Whether the output actually covers every edge (capped / adversarial
    /// variants can fail feasibility, which is itself a measured result).
    pub feasible: bool,
    /// Size of the cover output by the coordinator.
    pub cover_size: usize,
    /// Best known cover size for the input (exact when feasible, otherwise an
    /// upper bound certified by the instance construction).
    pub reference_cover_size: usize,
    /// `cover_size / reference_cover_size`.
    pub approximation_ratio: f64,
    /// Communication accounting for the run.
    pub communication: CommunicationCost,
    /// Fault accounting when the run executed under a fault plan
    /// (`null`/`None` for fault-free runs).
    pub faults: Option<FaultReport>,
}

impl VertexCoverProtocolReport {
    /// Computes the approximation ratio, guarding against division by zero
    /// (the same guarded quotient as [`MatchingProtocolReport::ratio`]).
    pub fn ratio(achieved: usize, reference: usize) -> f64 {
        MatchingProtocolReport::ratio(achieved, reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_ratio_handles_degenerate_cases() {
        assert_eq!(MatchingProtocolReport::ratio(0, 0), 1.0);
        assert_eq!(MatchingProtocolReport::ratio(10, 5), 2.0);
        assert!(MatchingProtocolReport::ratio(10, 0).is_infinite());
    }

    #[test]
    fn cover_ratio_handles_degenerate_cases() {
        assert_eq!(VertexCoverProtocolReport::ratio(0, 0), 1.0);
        assert_eq!(VertexCoverProtocolReport::ratio(30, 10), 3.0);
        assert!(VertexCoverProtocolReport::ratio(5, 0).is_infinite());
    }

    #[test]
    fn reports_serialize_to_json() {
        let report = MatchingProtocolReport {
            protocol: "maximum-matching".into(),
            k: 4,
            n: 100,
            m: 400,
            matching_size: 45,
            reference_matching_size: 50,
            approximation_ratio: 50.0 / 45.0,
            communication: CommunicationCost::default(),
            faults: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("maximum-matching"));
        let back: MatchingProtocolReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.matching_size, 45);
    }

    #[test]
    fn matching_report_round_trips_every_field() {
        let mut communication = CommunicationCost::default();
        communication.record_message(&crate::comm::CostModel::for_n(100), 45, 0);
        let report = MatchingProtocolReport {
            protocol: "subsampled".into(),
            k: 8,
            n: 100,
            m: 400,
            matching_size: 45,
            reference_matching_size: 50,
            approximation_ratio: 50.0 / 45.0,
            communication,
            faults: Some(FaultReport::new(9)),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: MatchingProtocolReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.protocol, report.protocol);
        assert_eq!(back.k, report.k);
        assert_eq!(back.n, report.n);
        assert_eq!(back.m, report.m);
        assert_eq!(back.matching_size, report.matching_size);
        assert_eq!(back.reference_matching_size, report.reference_matching_size);
        assert_eq!(back.approximation_ratio, report.approximation_ratio);
        assert_eq!(back.communication, report.communication);
        assert_eq!(back.faults, report.faults);
    }

    #[test]
    fn vertex_cover_report_round_trips_through_pretty_json() {
        let mut communication = CommunicationCost::default();
        let model = crate::comm::CostModel::for_n(1 << 20);
        communication.record_message(&model, 1024, 64);
        communication.record_message(&model, 0, 32);
        let report = VertexCoverProtocolReport {
            protocol: "peeling".into(),
            k: 32,
            n: 1 << 20,
            m: 1 << 23,
            feasible: true,
            cover_size: 9000,
            reference_cover_size: 4096,
            approximation_ratio: 9000.0 / 4096.0,
            communication,
            faults: None,
        };
        let pretty = serde_json::to_string_pretty(&report).unwrap();
        assert!(pretty.contains('\n'), "pretty output should be multi-line");
        let back: VertexCoverProtocolReport = serde_json::from_str(&pretty).unwrap();
        assert_eq!(back.feasible, report.feasible);
        assert_eq!(back.cover_size, report.cover_size);
        assert_eq!(back.approximation_ratio, report.approximation_ratio);
        assert_eq!(back.communication, report.communication);
    }

    #[test]
    fn report_deserialization_rejects_missing_fields() {
        let err = serde_json::from_str::<MatchingProtocolReport>("{\"protocol\":\"x\"}");
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("missing field"));
    }
}
