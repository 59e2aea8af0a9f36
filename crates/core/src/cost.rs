//! Audit communication-cost accounting.
//!
//! A key POS property the paper leans on (§IV): "the size of the
//! information exchanged between client and server is very small and may
//! even be independent of the size of stored data". This module computes
//! exact per-audit byte costs so experiments can show the audit cost is
//! flat in the file size while naive verification (download everything)
//! is linear.

use geoproof_por::params::PorParams;

/// Byte costs of one audit with `k` challenges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditCost {
    /// TPA → verifier trigger (fid ‖ ñ ‖ k ‖ nonce).
    pub trigger_bytes: u64,
    /// Verifier → prover challenge traffic (k indices).
    pub challenge_bytes: u64,
    /// Prover → verifier response traffic (k tagged segments).
    pub response_bytes: u64,
    /// Verifier → TPA signed transcript.
    pub transcript_bytes: u64,
}

impl AuditCost {
    /// Total bytes moved end to end.
    pub fn total_bytes(&self) -> u64 {
        self.trigger_bytes + self.challenge_bytes + self.response_bytes + self.transcript_bytes
    }
}

/// Computes the exact audit cost for the given parameters.
///
/// Uses the canonical transcript encoding sizes from
/// [`crate::messages::SignedTranscript::signing_bytes`] plus the 64-byte
/// signature.
pub fn audit_cost(params: &PorParams, file_id_len: usize, k: u32) -> AuditCost {
    let seg = params.segment_bytes() as u64;
    let k64 = u64::from(k);
    AuditCost {
        trigger_bytes: 4 + file_id_len as u64 + 8 + 4 + 32,
        challenge_bytes: 8 * k64,
        response_bytes: seg * k64,
        // domain tag(22) + fid len(4+len) + nonce(32) + position(16)
        // + round count(4) + per round: index(8) + rtt(8) + len(4) + segment
        transcript_bytes: 22 + 4 + file_id_len as u64 + 32 + 16 + 4 + k64 * (8 + 8 + 4 + seg) + 64,
    }
}

/// Bytes required to verify by downloading the entire encoded file —
/// the baseline GeoProof's audits replace.
pub fn naive_download_bytes(params: &PorParams, file_bytes: u64) -> u64 {
    let ex = geoproof_por::params::overhead_example(params, file_bytes);
    ex.stored_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_cost_is_independent_of_file_size() {
        let p = PorParams::paper();
        let c = audit_cost(&p, 8, 1000);
        // Identical for a 1 MiB and a 1 TiB file: nothing in AuditCost
        // depends on file size. Spot-check magnitude: ~83 B/segment ×
        // 1000 ≈ 83 KB responses + ~103 KB transcript.
        assert_eq!(c.response_bytes, 83 * 1000);
        assert!(c.total_bytes() < 300_000, "total {}", c.total_bytes());
    }

    #[test]
    fn naive_download_is_linear_audit_is_flat() {
        let p = PorParams::paper();
        let audit = audit_cost(&p, 8, 1000).total_bytes();
        let small = naive_download_bytes(&p, 1 << 20);
        let large = naive_download_bytes(&p, 1 << 40);
        assert!(large > small * 500_000, "download scales linearly");
        assert!(audit < small, "even a 1 MiB download beats no audit");
        assert!(
            (large as f64) / (audit as f64) > 4e6,
            "audit is ~7 orders cheaper at 1 TiB"
        );
    }

    #[test]
    fn paper_audit_size_example() {
        // The paper's example audit: k = 1000 of 1M segments. Total
        // traffic ≈ 186 KB for a file of any size (2 GiB in the example:
        // a 12,000x saving vs downloading).
        let p = PorParams::paper();
        let c = audit_cost(&p, 8, 1000);
        let download = naive_download_bytes(&p, 2 << 30);
        assert!(c.total_bytes() < 200_000);
        assert!(download / c.total_bytes() > 10_000);
    }

    #[test]
    fn components_sum_to_total() {
        let c = audit_cost(&PorParams::test_small(), 4, 20);
        assert_eq!(
            c.total_bytes(),
            c.trigger_bytes + c.challenge_bytes + c.response_bytes + c.transcript_bytes
        );
    }
}
