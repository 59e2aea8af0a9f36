//! The store directories on disk, and the one stdin-or-file reader.
//!
//! Both formats are a metadata file of `key=value` lines next to a
//! segment file of u32-BE length-prefixed blobs:
//!
//! - static: `metadata.txt` + `segments.bin` (encoded segments);
//! - dynamic: `dyn-meta.txt` + `dyn-segments.bin` (*tagged* segments).
//!   This directory is the owner's mirror: `update`/`append` rewrite it
//!   as they ship tagged segments to the server, so the digest the next
//!   audit verifies against is always derivable locally — never taken
//!   from the provider.
//!
//! Segments read back are zero-copy slices of one shared buffer.

use super::{hex, unhex32, CliResult};
use bytes::Bytes;
use geoproof::por::dynamic::{DynamicDigest, DynamicOwner};
use geoproof::por::encode::FileMetadata;
use geoproof::por::stream::TaggedArena;
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{Read, Write};
use std::path::Path;
use std::str::FromStr;

/// Metadata of a dynamic store directory.
pub struct DynMeta {
    pub file_id: String,
    pub segment_bytes: u64,
    pub root: [u8; 32],
    /// The owner's update-authorisation public key; the server refuses
    /// unsigned mutations of this file.
    pub owner_pub: [u8; 32],
}

/// Default dynamic segment size (bodies; the 4-byte tag rides on top).
pub const DYN_SEGMENT_BYTES: usize = 4096;

/// Reads a whole input: a file path, or `-` for stdin.
pub fn read_input(source: &str) -> Result<Vec<u8>, String> {
    if source != "-" {
        return std::fs::read(source).map_err(|e| format!("read {source}: {e}"));
    }
    let mut data = Vec::new();
    std::io::stdin()
        .read_to_end(&mut data)
        .map_err(|e| format!("read stdin: {e}"))?;
    Ok(data)
}

/// Streams the encoded arena into `segments.bin` (buffered sequential
/// writes — the arena is the only full copy in memory).
pub fn write_store(dir: &Path, arena: &TaggedArena) -> CliResult {
    let md = arena.metadata();
    let meta = [
        ("file_id", md.file_id.clone()),
        ("original_len", md.original_len.to_string()),
        ("raw_blocks", md.raw_blocks.to_string()),
        ("encoded_blocks", md.encoded_blocks.to_string()),
        ("segments", md.segments.to_string()),
    ];
    write_files(dir, ("metadata.txt", &meta), "segments.bin", arena.iter())
}

pub fn read_store(dir: &Path) -> Result<(Vec<Bytes>, FileMetadata), String> {
    let (meta, segments) = read_files(dir, "metadata.txt", "segments.bin")?;
    let md = FileMetadata {
        file_id: meta.get::<String>("file_id")?,
        original_len: meta.get("original_len")?,
        raw_blocks: meta.get("raw_blocks")?,
        encoded_blocks: meta.get("encoded_blocks")?,
        segments: segments.len() as u64,
    };
    Ok((segments, md))
}

/// Writes the owner's mirror; returns the digest its metadata records.
pub fn write_dyn_store(
    dir: &Path,
    file_id: &str,
    tagged: &[Bytes],
    segment_bytes: u64,
    owner_pub: &[u8; 32],
) -> Result<DynamicDigest, String> {
    let digest = DynamicOwner::from_tagged(file_id, tagged).digest();
    let meta = [
        ("file_id", file_id.to_owned()),
        ("segments", tagged.len().to_string()),
        ("segment_bytes", segment_bytes.to_string()),
        ("root", hex(&digest.root)),
        ("owner_pub", hex(owner_pub)),
    ];
    write_files(dir, ("dyn-meta.txt", &meta), "dyn-segments.bin", tagged)?;
    Ok(digest)
}

pub fn read_dyn_store(dir: &Path) -> Result<(Vec<Bytes>, DynMeta), String> {
    let (meta, tagged) = read_files(dir, "dyn-meta.txt", "dyn-segments.bin")?;
    let meta = DynMeta {
        file_id: meta.get("file_id")?,
        segment_bytes: meta.get("segment_bytes")?,
        root: unhex32(&meta.get::<String>("root")?)?,
        owner_pub: unhex32(&meta.get::<String>("owner_pub")?)?,
    };
    Ok((tagged, meta))
}

/// The owner mirror over the store's tagged segments, cross-checked
/// against the recorded root (catches a corrupted mirror before it is
/// used to derive audit digests).
pub fn dyn_owner(tagged: &[Bytes], meta: &DynMeta) -> Result<DynamicOwner, String> {
    let owner = DynamicOwner::from_tagged(&meta.file_id, tagged);
    if owner.digest().root != meta.root {
        return Err(
            "owner mirror is corrupt: recomputed digest root does not match dyn-meta.txt".into(),
        );
    }
    Ok(owner)
}

/// A parsed `key=value` metadata file: its name and fields.
struct Meta(&'static str, HashMap<String, String>);

impl Meta {
    fn get<T: FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self
            .1
            .get(key)
            .ok_or_else(|| format!("{} missing {key}", self.0))?;
        value.parse().map_err(|e| format!("bad {key}: {e}"))
    }
}

/// Writes the `key=value` metadata file and, before it, the segment
/// file.
fn write_files<S: AsRef<[u8]>>(
    dir: &Path,
    (meta_name, meta): (&str, &[(&str, String)]),
    seg_name: &str,
    segments: impl IntoIterator<Item = S>,
) -> CliResult {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let file = std::fs::File::create(dir.join(seg_name)).map_err(|e| format!("{seg_name}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for seg in segments {
        let seg = seg.as_ref();
        w.write_all(&(seg.len() as u32).to_be_bytes())
            .and_then(|()| w.write_all(seg))
            .map_err(|e| format!("write segment: {e}"))?;
    }
    w.flush().map_err(|e| format!("flush {seg_name}: {e}"))?;
    let text: String = meta.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    std::fs::write(dir.join(meta_name), text).map_err(|e| format!("{meta_name}: {e}"))
}

/// Reads a metadata file and its segment file, checking the segment
/// count the metadata declares.
fn read_files(
    dir: &Path,
    meta_name: &'static str,
    seg_name: &str,
) -> Result<(Meta, Vec<Bytes>), String> {
    let text =
        std::fs::read_to_string(dir.join(meta_name)).map_err(|e| format!("{meta_name}: {e}"))?;
    let fields = text.lines().filter_map(|line| line.split_once('='));
    let meta = Meta(
        meta_name,
        fields
            .map(|(k, v)| (k.trim().into(), v.trim().into()))
            .collect(),
    );
    let declared: u64 = meta.get("segments")?;
    let bytes =
        Bytes::from(std::fs::read(dir.join(seg_name)).map_err(|e| format!("{seg_name}: {e}"))?);
    let mut segments = Vec::with_capacity((declared as usize).min(bytes.len() / 4));
    let mut pos = 0usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err(format!("{seg_name} truncated"));
        }
        segments.push(bytes.slice(pos..pos + len));
        pos += len;
    }
    if segments.len() as u64 != declared {
        return Err(format!(
            "{meta_name} says {declared} segments, {seg_name} holds {}",
            segments.len()
        ));
    }
    Ok((meta, segments))
}
