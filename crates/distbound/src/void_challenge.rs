//! Void-challenge distance bounding (Munilla & Peinado, cited by the
//! paper's §III-A survey, reference 30).
//!
//! A fraction of rounds, secretly pre-agreed through the shared key, are
//! *void*: the verifier sends nothing and the prover must stay silent. A
//! mafia-fraud relay that pre-asks the prover now risks probing during a
//! void round, which the prover detects and aborts on. With full-round
//! probability `p_f` the per-round adversary success becomes
//!
//! ```text
//! max( p_f · 3/4 ,            (pre-ask strategy: void probe ⇒ caught)
//!      1 − p_f/2 )            (guess strategy: voids cost nothing)
//! ```
//!
//! balanced at `p_f = 4/5`, giving (3/5)^n — better than Hancke–Kuhn's
//! (3/4)^n for the same round count.

use crate::rounds::{bit_at, ChannelModel, Round, Scenario, Transcript, Verdict};
use geoproof_crypto::chacha::ChaChaRng;
use geoproof_crypto::hmac::HmacSha256;
use geoproof_sim::time::SimDuration;

/// The balanced full-round probability 4/5.
pub const BALANCED_FULL_PROB: f64 = 0.8;

/// A void-challenge session after initialisation.
#[derive(Clone, Debug)]
pub struct VoidChallengeSession {
    l: Vec<u8>,
    r: Vec<u8>,
    // Per-round "full" markers, derived from the shared secret: the
    // adversary cannot predict them.
    full: Vec<bool>,
    n_rounds: usize,
}

/// Outcome of a void-challenge run: a transcript plus whether the prover
/// aborted after being probed in a void round.
#[derive(Clone, Debug)]
pub struct VoidRunOutcome {
    /// Timed rounds that actually took place (full rounds only).
    pub transcript: Transcript,
    /// Round indices of the transcript entries within the session.
    pub round_indices: Vec<usize>,
    /// The prover detected a challenge during a void round and aborted.
    pub prover_aborted: bool,
}

impl VoidChallengeSession {
    /// Initialises the session: registers from HMAC like Hancke–Kuhn plus
    /// the secret void/full schedule with full-probability
    /// `full_prob` (use [`BALANCED_FULL_PROB`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_rounds` is 0 or > 1024, or `full_prob` ∉ (0, 1].
    pub fn initialise(
        secret: &[u8],
        nonce_v: &[u8],
        nonce_p: &[u8],
        n_rounds: usize,
        full_prob: f64,
    ) -> Self {
        assert!((1..=1024).contains(&n_rounds), "round count out of range");
        assert!(
            full_prob > 0.0 && full_prob <= 1.0,
            "full_prob must be in (0, 1]"
        );
        let reg_bytes = n_rounds.div_ceil(8);
        let mut material = Vec::new();
        let mut counter = 0u8;
        while material.len() < 2 * reg_bytes + 4 * n_rounds.div_ceil(4) {
            let mut h = HmacSha256::new(secret);
            h.update(b"void-challenge-registers");
            h.update(nonce_v);
            h.update(nonce_p);
            h.update(&[counter]);
            material.extend_from_slice(&h.finalize());
            counter += 1;
        }
        let l = material[..reg_bytes].to_vec();
        let r = material[reg_bytes..2 * reg_bytes].to_vec();
        // Schedule: one byte of PRF output per round, full iff below the
        // threshold (granularity 1/256 is plenty).
        let threshold = (full_prob * 256.0).round().clamp(1.0, 256.0) as u16;
        let sched = &material[2 * reg_bytes..];
        let full = (0..n_rounds)
            .map(|i| u16::from(sched[i % sched.len()].wrapping_add(i as u8)) < threshold)
            .collect();
        VoidChallengeSession {
            l,
            r,
            full,
            n_rounds,
        }
    }

    /// Number of scheduled rounds (full + void).
    pub fn rounds(&self) -> usize {
        self.n_rounds
    }

    /// Number of full rounds in this session's schedule.
    pub fn full_rounds(&self) -> usize {
        self.full.iter().filter(|f| **f).count()
    }

    /// Honest response for round `i`.
    pub fn respond(&self, i: usize, alpha: u8) -> u8 {
        if alpha == 0 {
            bit_at(&self.l, i)
        } else {
            bit_at(&self.r, i)
        }
    }

    /// Runs the protocol under `scenario`.
    ///
    /// The mafia-fraud adversary pre-asks each round with a guessed
    /// challenge; any pre-ask that lands on a void round is noticed by the
    /// genuine prover, aborting the run.
    pub fn run(
        &self,
        scenario: Scenario,
        channel: &ChannelModel,
        rng: &mut ChaChaRng,
    ) -> VoidRunOutcome {
        let rtt = channel.rtt_at(scenario.responder_distance());
        let mut rounds = Vec::new();
        let mut round_indices = Vec::new();
        for i in 0..self.n_rounds {
            if !self.full[i] {
                // Void round: the verifier stays silent. A pre-asking
                // relay probes the prover anyway — and is caught.
                if matches!(scenario, Scenario::MafiaFraud { .. }) {
                    return VoidRunOutcome {
                        transcript: Transcript { rounds },
                        round_indices,
                        prover_aborted: true,
                    };
                }
                continue;
            }
            let alpha = (rng.next_u32() & 1) as u8;
            let response = match scenario {
                Scenario::Honest { .. } | Scenario::Terrorist { .. } => self.respond(i, alpha),
                Scenario::MafiaFraud { .. } => {
                    let guess = (rng.next_u32() & 1) as u8;
                    if guess == alpha {
                        self.respond(i, alpha)
                    } else {
                        (rng.next_u32() & 1) as u8
                    }
                }
                Scenario::DistanceFraud { .. } => {
                    let l_bit = bit_at(&self.l, i);
                    let r_bit = bit_at(&self.r, i);
                    if l_bit == r_bit {
                        l_bit
                    } else if (rng.next_u32() & 1) == 0 {
                        self.respond(i, alpha)
                    } else {
                        1 - self.respond(i, alpha)
                    }
                }
            };
            rounds.push(Round {
                challenge: alpha,
                response,
                rtt,
            });
            round_indices.push(i);
        }
        VoidRunOutcome {
            transcript: Transcript { rounds },
            round_indices,
            prover_aborted: false,
        }
    }

    /// Verifies an outcome: abort ⇒ reject; otherwise bits + timing over
    /// the full rounds.
    pub fn verify(&self, outcome: &VoidRunOutcome, max_rtt: SimDuration) -> Verdict {
        if outcome.prover_aborted {
            return Verdict::WrongBit(outcome.transcript.rounds.len());
        }
        for (pos, round) in outcome.transcript.rounds.iter().enumerate() {
            let i = outcome.round_indices[pos];
            if round.rtt > max_rtt {
                return Verdict::TooSlow(pos);
            }
            if round.response != self.respond(i, round.challenge) {
                return Verdict::WrongBit(pos);
            }
        }
        Verdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoproof_sim::time::Km;

    fn session(n: usize, seed: u8) -> VoidChallengeSession {
        VoidChallengeSession::initialise(
            b"shared-secret",
            &[seed; 8],
            b"nonce-p",
            n,
            BALANCED_FULL_PROB,
        )
    }

    #[test]
    fn honest_run_accepts() {
        let s = session(64, 1);
        let ch = ChannelModel::default();
        let mut rng = ChaChaRng::from_u64_seed(1);
        let out = s.run(Scenario::Honest { distance: Km(0.05) }, &ch, &mut rng);
        assert!(!out.prover_aborted);
        assert_eq!(s.verify(&out, ch.max_rtt_for(Km(0.1))), Verdict::Accept);
        assert_eq!(out.transcript.rounds.len(), s.full_rounds());
    }

    #[test]
    fn schedule_has_roughly_four_fifths_full_rounds() {
        let s = session(512, 2);
        let frac = s.full_rounds() as f64 / 512.0;
        assert!((frac - 0.8).abs() < 0.1, "full fraction {frac}");
    }

    #[test]
    fn preasking_relay_is_caught_by_void_rounds() {
        // With ~20% void rounds, a 32-round session almost surely contains
        // one, and the pre-asking relay aborts the prover.
        let ch = ChannelModel::default();
        let mut rng = ChaChaRng::from_u64_seed(3);
        let mut aborted = 0;
        for seed in 0..50u8 {
            let s = session(32, seed);
            let out = s.run(
                Scenario::MafiaFraud {
                    attacker_distance: Km(0.05),
                },
                &ch,
                &mut rng,
            );
            if out.prover_aborted {
                aborted += 1;
            }
            assert!(!s.verify(&out, ch.max_rtt_for(Km(0.1))).is_accept());
        }
        assert!(aborted > 40, "only {aborted}/50 runs aborted");
    }

    #[test]
    fn schedule_differs_between_sessions() {
        let a = session(64, 1);
        let b = session(64, 9);
        assert_ne!(a.full, b.full);
    }

    #[test]
    #[should_panic(expected = "full_prob")]
    fn zero_full_prob_panics() {
        VoidChallengeSession::initialise(b"s", b"nv", b"np", 8, 0.0);
    }
}
