//! Dynamic POR: authenticated updates to stored files (the paper's
//! named extension — "GeoProof could be modified to encompass other POS
//! schemes that support verifying dynamic data such as dynamic proof of
//! retrievability (DPOR) by Wang et al.", §IV).
//!
//! Construction, following the DPOR idea: segments keep their MAC tags,
//! and a Merkle tree over the *tagged segments* authenticates positions,
//! so the owner can update, append, and audit without re-encoding the
//! whole file. The owner (or TPA) retains the [`DynamicDigest`]; the
//! provider stores the tree and furnishes membership proofs alongside the
//! challenged segments.
//!
//! Three roles, three types:
//!
//! * [`DynamicStore`] — the **provider** side: tagged segments plus the
//!   Merkle tree, *no keys*. Updates and appends arrive as already-tagged
//!   bytes ([`DynamicStore::apply_update`]/[`DynamicStore::apply_append`])
//!   because the provider must never hold the owner's MAC key.
//! * [`DynamicOwner`] — the **owner** side: file id plus the Merkle leaf
//!   digests (32 bytes per segment, never the data). It tags new bodies
//!   and derives the expected new digest *independently of the provider*
//!   — accepting a provider-claimed digest would let a cheating server
//!   silently drop updates (commit to the stale segment it already has).
//! * [`verify_challenge`] — the **TPA** side: Merkle membership against
//!   the owner's digest plus the embedded MAC.
//!
//! Trade-off vs the static scheme (see `docs/dynamic.md`): dynamic
//! updates forgo the global Reed–Solomon/permutation layer (an update
//! would reveal which RS chunk a block belongs to), exactly as
//! Juels–Kaliski's static scheme trades dynamism for extraction
//! robustness.

use crate::keys::PorKeys;
use crate::merkle::{leaf_hash, verify_proof, Digest, MerkleProof, MerkleTree};
use bytes::Bytes;
use geoproof_crypto::hmac::{HmacSha256, TruncatedMac};
use geoproof_crypto::sha256::DIGEST_LEN;

/// Tag width for dynamic segments (full paper tag width is fine; updates
/// don't amortise over many tags the way audits do, so we keep 32 bits).
pub const DYNAMIC_TAG_BITS: u32 = 32;

/// Domain-separation prefix of the tag MAC input. Versioned: v1 was the
/// raw `body ‖ index ‖ file_id` concatenation, which admitted cross-file
/// forgeries (see [`tag_segment`]); v2 length-prefixes every
/// variable-length field.
const TAG_DOMAIN: &[u8] = b"geoproof-dyn-tag-v2";

/// The owner/TPA-side state: just the root and the segment count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicDigest {
    /// Merkle root over tagged segments.
    pub root: Digest,
    /// Current segment count.
    pub segments: u64,
}

/// The provider-side store: tagged segments plus the Merkle tree. Holds
/// no key material; segments are refcounted [`Bytes`] views, so serving
/// a challenge never copies payload.
#[derive(Clone, Debug)]
pub struct DynamicStore {
    segments: Vec<Bytes>,
    tree: MerkleTree,
}

/// A challenged segment with its membership proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenSegment {
    /// The tagged segment bytes — an aliasing view of the stored segment.
    pub segment: Bytes,
    /// Merkle membership proof for its index.
    pub proof: MerkleProof,
}

/// Errors from dynamic operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicError {
    /// Index beyond the current segment count.
    OutOfRange {
        /// Offending index.
        index: u64,
        /// Current length.
        len: u64,
    },
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::OutOfRange { index, len } => {
                write!(f, "segment {index} out of range (len {len})")
            }
        }
    }
}

impl std::error::Error for DynamicError {}

/// The full (untruncated) dynamic tag MAC under `mac_key`, over the
/// canonical input
/// `domain ‖ u32 len(file_id) ‖ file_id ‖ u64 index ‖ u32 len(body) ‖ body`,
/// fed to the HMAC part by part.
///
/// Every variable-length field is length-prefixed. The previous encoding
/// (`body ‖ index ‖ file_id`, no prefixes) let fields bleed into each
/// other: a tag for `(file "fileX", index i, body b)` re-parsed as a
/// valid tag for `(file "X", index i′, body b′)` with
/// `i′ = u64(i[4..] ‖ "file")` and `b′ = b ‖ i[..4]` — a concrete
/// cross-file forgery whenever one MAC key covers more than one file id
/// (the regression test below constructs exactly this collision).
fn tag_mac(mac_key: &[u8; 32], file_id: &str, index: u64, body: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(mac_key);
    h.update(TAG_DOMAIN);
    h.update(&(file_id.len() as u32).to_be_bytes());
    h.update(file_id.as_bytes());
    h.update(&index.to_be_bytes());
    h.update(&(body.len() as u32).to_be_bytes());
    h.update(body);
    h.finalize()
}

/// Tags a segment body for `(file_id, index)`: returns `body ‖ τ` with
/// `τ = MAC_K′(domain ‖ len-prefixed file_id ‖ index ‖ len-prefixed
/// body)` truncated to [`DYNAMIC_TAG_BITS`]. Owner-side: needs the MAC
/// key.
pub fn tag_segment(keys: &PorKeys, file_id: &str, index: u64, body: &[u8]) -> Vec<u8> {
    let mac = TruncatedMac::new(DYNAMIC_TAG_BITS);
    let full = tag_mac(keys.mac_key(), file_id, index, body);
    let mut out = body.to_vec();
    out.resize(body.len() + mac.byte_len(), 0);
    mac.truncate(&full, &mut out[body.len()..]);
    out
}

/// Splits a tagged segment into body and tag.
fn split_tagged(segment: &[u8]) -> Option<(&[u8], &[u8])> {
    let tag_len = (DYNAMIC_TAG_BITS as usize).div_ceil(8);
    if segment.len() < tag_len {
        return None;
    }
    Some(segment.split_at(segment.len() - tag_len))
}

/// Checks the embedded MAC of a tagged segment for `(file_id, index)`.
/// This is the keyed half of dynamic verification (the Merkle half is
/// [`verify_proof`] and needs no key).
pub fn verify_tagged(mac_key: &[u8; 32], file_id: &str, index: u64, tagged: &[u8]) -> bool {
    let Some((body, tag)) = split_tagged(tagged) else {
        return false;
    };
    TruncatedMac::new(DYNAMIC_TAG_BITS).matches(&tag_mac(mac_key, file_id, index, body), tag)
}

impl DynamicStore {
    /// Initialises the store from plaintext segments (the owner encrypts
    /// beforehand if confidentiality is wanted; dynamism is orthogonal).
    /// Returns the store and the owner's digest. Owner-side convenience —
    /// a real provider receives already-tagged bytes
    /// ([`DynamicStore::from_tagged`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty body list.
    pub fn initialise(
        file_id: &str,
        bodies: &[Vec<u8>],
        keys: &PorKeys,
    ) -> (DynamicStore, DynamicDigest) {
        let tagged: Vec<Bytes> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| Bytes::from(tag_segment(keys, file_id, i as u64, b)))
            .collect();
        let store = DynamicStore::from_tagged(tagged);
        let digest = store.digest();
        (store, digest)
    }

    /// Builds the provider-side store from already-tagged segments — the
    /// upload format. No keys involved.
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list.
    pub fn from_tagged(segments: Vec<Bytes>) -> DynamicStore {
        assert!(!segments.is_empty(), "need at least one segment");
        let tree = MerkleTree::build(&segments);
        DynamicStore { segments, tree }
    }

    /// The current digest (what an honest provider believes the owner
    /// holds).
    pub fn digest(&self) -> DynamicDigest {
        DynamicDigest {
            root: self.tree.root(),
            segments: self.len(),
        }
    }

    /// Current segment count.
    pub fn len(&self) -> u64 {
        self.segments.len() as u64
    }

    /// True when the store holds no segments (cannot happen after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// An aliasing view of one stored tagged segment.
    pub fn segment(&self, index: u64) -> Option<Bytes> {
        self.segments.get(index as usize).cloned()
    }

    /// Serves a challenge: segment plus membership proof. The segment is
    /// an aliasing view, not a copy.
    ///
    /// # Errors
    ///
    /// [`DynamicError::OutOfRange`] for a bad index.
    pub fn challenge(&self, index: u64) -> Result<ProvenSegment, DynamicError> {
        if index >= self.len() {
            return Err(DynamicError::OutOfRange {
                index,
                len: self.len(),
            });
        }
        Ok(ProvenSegment {
            segment: self.segments[index as usize].clone(),
            proof: self.tree.prove(index),
        })
    }

    /// Replaces segment `index` with already-tagged bytes, updating the
    /// tree in O(log n); returns the new digest (which the owner
    /// cross-checks against its independently derived one).
    ///
    /// # Errors
    ///
    /// [`DynamicError::OutOfRange`] for a bad index.
    pub fn apply_update(
        &mut self,
        index: u64,
        tagged: Bytes,
    ) -> Result<DynamicDigest, DynamicError> {
        if index >= self.len() {
            return Err(DynamicError::OutOfRange {
                index,
                len: self.len(),
            });
        }
        self.tree.update(index, &tagged);
        self.segments[index as usize] = tagged;
        Ok(self.digest())
    }

    /// Appends an already-tagged segment, returning the new digest.
    pub fn apply_append(&mut self, tagged: Bytes) -> DynamicDigest {
        self.tree.append(&tagged);
        self.segments.push(tagged);
        self.digest()
    }

    /// Adversarial hook: silently corrupt a stored segment *without*
    /// updating the tree (what a cheating provider would do).
    pub fn corrupt_silently(&mut self, index: u64, mask: u8) -> bool {
        if let Some(seg) = self.segments.get_mut(index as usize) {
            let mut bytes = seg.to_vec();
            for b in bytes.iter_mut() {
                *b ^= mask;
            }
            *seg = Bytes::from(bytes);
            true
        } else {
            false
        }
    }
}

/// The owner's light mirror of a dynamic file: the file id and a Merkle
/// tree over leaf digests (32 bytes per segment — never the data).
/// Enough to derive the expected [`DynamicDigest`] after any update or
/// append *without trusting the provider*, which is what makes a
/// silently-dropped update detectable: the provider's claimed digest
/// will not match. Holding the tree (not bare leaves) keeps `digest()`
/// O(1) and an update O(log n) — only appends pay a rebuild.
#[derive(Clone, Debug)]
pub struct DynamicOwner {
    file_id: String,
    tree: MerkleTree,
}

impl PartialEq for DynamicOwner {
    fn eq(&self, other: &Self) -> bool {
        self.file_id == other.file_id && self.tree.leaves() == other.tree.leaves()
    }
}

impl Eq for DynamicOwner {}

impl DynamicOwner {
    /// Mirrors an initial upload: one leaf digest per tagged segment.
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list.
    pub fn from_tagged<S: AsRef<[u8]>>(file_id: &str, tagged: &[S]) -> DynamicOwner {
        assert!(!tagged.is_empty(), "need at least one segment");
        let leaves = tagged
            .iter()
            .enumerate()
            .map(|(i, s)| leaf_hash(i as u64, s.as_ref()))
            .collect();
        DynamicOwner {
            file_id: file_id.to_owned(),
            tree: MerkleTree::from_leaves(leaves),
        }
    }

    /// Restores a mirror from persisted leaf digests (the CLI keeps them
    /// in the owner's store directory).
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf list.
    pub fn from_leaves(file_id: &str, leaves: Vec<Digest>) -> DynamicOwner {
        assert!(!leaves.is_empty(), "need at least one leaf");
        DynamicOwner {
            file_id: file_id.to_owned(),
            tree: MerkleTree::from_leaves(leaves),
        }
    }

    /// The mirrored file id.
    pub fn file_id(&self) -> &str {
        &self.file_id
    }

    /// Current segment count.
    pub fn len(&self) -> u64 {
        self.tree.len() as u64
    }

    /// True when the mirror holds no leaves (cannot happen after
    /// construction).
    pub fn is_empty(&self) -> bool {
        false // by construction a mirror always has ≥ 1 leaf
    }

    /// The persisted form: one digest per segment.
    pub fn leaves(&self) -> &[Digest] {
        self.tree.leaves()
    }

    /// The digest audits verify against, derived from the mirror alone.
    /// O(1): the tree keeps the root current.
    pub fn digest(&self) -> DynamicDigest {
        DynamicDigest {
            root: self.tree.root(),
            segments: self.len(),
        }
    }

    /// Tags a replacement body for segment `index` and advances the
    /// mirror (O(log n)): returns the tagged bytes to ship to the
    /// provider and the digest the provider must land on.
    ///
    /// # Errors
    ///
    /// [`DynamicError::OutOfRange`] for a bad index.
    pub fn tag_update(
        &mut self,
        index: u64,
        body: &[u8],
        keys: &PorKeys,
    ) -> Result<(Vec<u8>, DynamicDigest), DynamicError> {
        if index >= self.len() {
            return Err(DynamicError::OutOfRange {
                index,
                len: self.len(),
            });
        }
        let tagged = tag_segment(keys, &self.file_id, index, body);
        self.tree.set_leaf(index, leaf_hash(index, &tagged));
        Ok((tagged, self.digest()))
    }

    /// Tags an appended body and advances the mirror: returns the tagged
    /// bytes and the expected new digest.
    pub fn tag_append(&mut self, body: &[u8], keys: &PorKeys) -> (Vec<u8>, DynamicDigest) {
        let index = self.len();
        let tagged = tag_segment(keys, &self.file_id, index, body);
        self.tree.push_leaf(leaf_hash(index, &tagged));
        (tagged, self.digest())
    }
}

/// Canonical byte string an owner signs to authorise a provider-side
/// mutation: `domain ‖ u32 len(file_id) ‖ file_id ‖ op ‖ u64 index ‖
/// u32 len(tagged) ‖ tagged`, with `op` 1 for update and 2 for append.
/// The provider (who holds only the owner's *public* key) verifies this
/// before touching its store — without it, any peer that can reach the
/// socket could rewrite segments and frame an honest provider as a
/// cheat at the next audit.
pub fn owner_authorization(file_id: &str, is_append: bool, index: u64, tagged: &[u8]) -> Vec<u8> {
    let mut msg =
        Vec::with_capacity(OWNER_AUTH_DOMAIN.len() + 4 + file_id.len() + 1 + 8 + 4 + tagged.len());
    msg.extend_from_slice(OWNER_AUTH_DOMAIN);
    msg.extend_from_slice(&(file_id.len() as u32).to_be_bytes());
    msg.extend_from_slice(file_id.as_bytes());
    msg.push(if is_append { 2 } else { 1 });
    msg.extend_from_slice(&index.to_be_bytes());
    msg.extend_from_slice(&(tagged.len() as u32).to_be_bytes());
    msg.extend_from_slice(tagged);
    msg
}

/// Domain-separation prefix of [`owner_authorization`].
const OWNER_AUTH_DOMAIN: &[u8] = b"geoproof-dyn-owner-auth-v1";

/// TPA-side verification of a challenged segment against the owner's
/// digest: Merkle membership AND the embedded MAC.
pub fn verify_challenge(
    digest: &DynamicDigest,
    file_id: &str,
    index: u64,
    response: &ProvenSegment,
    keys: &PorKeys,
) -> bool {
    if index >= digest.segments || response.proof.index != index {
        return false;
    }
    if !verify_proof(&digest.root, &response.segment, &response.proof) {
        return false;
    }
    verify_tagged(keys.mac_key(), file_id, index, &response.segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> PorKeys {
        PorKeys::derive(b"dyn-master", "dynfile")
    }

    fn bodies(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 64]).collect()
    }

    /// The pre-fix MAC input: raw `body ‖ index ‖ file_id` concatenation.
    fn old_mac_input(file_id: &str, index: u64, body: &[u8]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(body.len() + 8 + file_id.len());
        msg.extend_from_slice(body);
        msg.extend_from_slice(&index.to_be_bytes());
        msg.extend_from_slice(file_id.as_bytes());
        msg
    }

    /// The headline regression: the old unprefixed encoding admits a
    /// concrete cross-file tag forgery — a tag issued for
    /// `("fileX", i, b)` is byte-for-byte a valid tag for
    /// `("X", i′, b′)` with `i′ = u64(i[4..] ‖ "file")` and
    /// `b′ = b ‖ i[..4]`. The new length-prefixed encoding separates the
    /// two messages, so the forged triple no longer verifies.
    #[test]
    fn cross_file_tag_collision_is_closed() {
        // One MAC key shared across file ids — exactly the situation the
        // encoding must defend (the API verifies (file_id, keys)
        // independently, so nothing forces per-file keys).
        let shared = PorKeys::derive(b"bucket-master", "bucket");
        let body = b"genuine segment body".to_vec();
        let index: u64 = 0x0102030405060708;

        // The forged triple the old encoding collides with.
        let forged_body: Vec<u8> = {
            let mut b = body.clone();
            b.extend_from_slice(&index.to_be_bytes()[..4]);
            b
        };
        let forged_index = u64::from_be_bytes({
            let mut raw = [0u8; 8];
            raw[..4].copy_from_slice(&index.to_be_bytes()[4..]);
            raw[4..].copy_from_slice(b"file");
            raw
        });

        // Old encoding: the two MAC inputs are identical bytes, so any
        // MAC of one IS a MAC of the other — the forgery verifies.
        assert_eq!(
            old_mac_input("fileX", index, &body),
            old_mac_input("X", forged_index, &forged_body),
            "the old encoding collides on this triple"
        );

        // New encoding: the inputs differ, and the forged triple fails
        // end-to-end verification.
        assert_ne!(
            tag_mac(shared.mac_key(), "fileX", index, &body),
            tag_mac(shared.mac_key(), "X", forged_index, &forged_body),
            "length prefixes must separate the messages"
        );
        let tagged = tag_segment(&shared, "fileX", index, &body);
        let (_, tag) = split_tagged(&tagged).expect("tagged");
        let mut forged = forged_body.clone();
        forged.extend_from_slice(tag);
        assert!(
            verify_tagged(shared.mac_key(), "fileX", index, &tagged),
            "the genuine segment verifies"
        );
        assert!(
            !verify_tagged(shared.mac_key(), "X", forged_index, &forged),
            "the cross-file forgery must be rejected"
        );
    }

    #[test]
    fn initialise_and_audit_all_segments() {
        let k = keys();
        let (store, digest) = DynamicStore::initialise("dynfile", &bodies(20), &k);
        for i in 0..20 {
            let resp = store.challenge(i).unwrap();
            assert!(
                verify_challenge(&digest, "dynfile", i, &resp, &k),
                "segment {i}"
            );
        }
    }

    #[test]
    fn owner_mirror_tracks_update_and_append() {
        let k = keys();
        let (mut store, d0) = DynamicStore::initialise("dynfile", &bodies(10), &k);
        let mut owner = DynamicOwner::from_tagged(
            "dynfile",
            &(0..10)
                .map(|i| store.segment(i).unwrap())
                .collect::<Vec<_>>(),
        );
        assert_eq!(owner.digest(), d0, "mirror starts in sync");

        // Update: the owner derives the digest; the store must land on it.
        let (tagged, expected) = owner.tag_update(4, b"updated body", &k).unwrap();
        let applied = store.apply_update(4, Bytes::from(tagged)).unwrap();
        assert_eq!(applied, expected);
        assert_ne!(expected.root, d0.root);
        let resp = store.challenge(4).unwrap();
        assert!(verify_challenge(&expected, "dynfile", 4, &resp, &k));
        // The *old* digest must reject the updated segment.
        assert!(!verify_challenge(&d0, "dynfile", 4, &resp, &k));

        // Append likewise.
        let (tagged, expected) = owner.tag_append(b"eleventh", &k);
        let applied = store.apply_append(Bytes::from(tagged));
        assert_eq!(applied, expected);
        assert_eq!(expected.segments, 11);
        let resp = store.challenge(10).unwrap();
        assert!(verify_challenge(&expected, "dynfile", 10, &resp, &k));
    }

    #[test]
    fn dropped_update_is_detected_by_digest_mismatch() {
        // A cheating provider ignores the update and keeps serving the
        // stale segment: its digest cannot match the owner's derivation,
        // and the stale segment fails under the owner's digest.
        let k = keys();
        let (store, _d0) = DynamicStore::initialise("dynfile", &bodies(6), &k);
        let mut owner = DynamicOwner::from_tagged(
            "dynfile",
            &(0..6)
                .map(|i| store.segment(i).unwrap())
                .collect::<Vec<_>>(),
        );
        let (_tagged, expected) = owner.tag_update(2, b"v2", &k).unwrap();
        // Provider "applies" nothing.
        assert_ne!(store.digest(), expected, "digest mismatch exposes the drop");
        let stale = store.challenge(2).unwrap();
        assert!(!verify_challenge(&expected, "dynfile", 2, &stale, &k));
    }

    #[test]
    fn silent_corruption_is_caught() {
        let k = keys();
        let (mut store, digest) = DynamicStore::initialise("dynfile", &bodies(10), &k);
        assert!(store.corrupt_silently(7, 0x20));
        let resp = store.challenge(7).unwrap();
        assert!(!verify_challenge(&digest, "dynfile", 7, &resp, &k));
    }

    #[test]
    fn stale_digest_rejects_rollback_attack() {
        // Provider serves the *old* segment with its old (valid-at-the-
        // time) proof after the owner updated — the fresh digest must
        // reject.
        let k = keys();
        let (mut store, _d0) = DynamicStore::initialise("dynfile", &bodies(10), &k);
        let old_resp = store.challenge(3).unwrap();
        let tagged = Bytes::from(tag_segment(&k, "dynfile", 3, b"v2"));
        let d1 = store.apply_update(3, tagged).unwrap();
        assert!(!verify_challenge(&d1, "dynfile", 3, &old_resp, &k));
    }

    #[test]
    fn wrong_index_rejected() {
        let k = keys();
        let (store, digest) = DynamicStore::initialise("dynfile", &bodies(10), &k);
        let resp = store.challenge(2).unwrap();
        assert!(!verify_challenge(&digest, "dynfile", 3, &resp, &k));
        assert!(matches!(
            store.challenge(10),
            Err(DynamicError::OutOfRange { index: 10, len: 10 })
        ));
    }

    #[test]
    fn wrong_keys_rejected() {
        let k = keys();
        let (store, digest) = DynamicStore::initialise("dynfile", &bodies(4), &k);
        let other = PorKeys::derive(b"other-master", "dynfile");
        let resp = store.challenge(0).unwrap();
        assert!(!verify_challenge(&digest, "dynfile", 0, &resp, &other));
    }

    #[test]
    fn update_out_of_range_errors() {
        let k = keys();
        let (mut store, _d) = DynamicStore::initialise("dynfile", &bodies(3), &k);
        assert!(store
            .apply_update(3, Bytes::from(tag_segment(&k, "dynfile", 3, b"x")))
            .is_err());
        let mut owner = DynamicOwner::from_tagged(
            "dynfile",
            &(0..3)
                .map(|i| store.segment(i).unwrap())
                .collect::<Vec<_>>(),
        );
        assert!(owner.tag_update(3, b"x", &k).is_err());
    }

    #[test]
    fn challenge_aliases_the_stored_segment() {
        let k = keys();
        let (store, _d) = DynamicStore::initialise("dynfile", &bodies(4), &k);
        let resp = store.challenge(1).unwrap();
        assert!(
            resp.segment.aliases(&store.segment(1).unwrap()),
            "served segment must be an aliasing view, not a copy"
        );
    }

    #[test]
    fn owner_roundtrips_through_persisted_leaves() {
        let k = keys();
        let (store, d0) = DynamicStore::initialise("dynfile", &bodies(7), &k);
        let owner = DynamicOwner::from_tagged(
            "dynfile",
            &(0..7)
                .map(|i| store.segment(i).unwrap())
                .collect::<Vec<_>>(),
        );
        let restored = DynamicOwner::from_leaves("dynfile", owner.leaves().to_vec());
        assert_eq!(restored, owner);
        assert_eq!(restored.digest(), d0);
    }
}
