//! `geoproof` — command-line interface to the GeoProof toolkit.
//!
//! ```text
//! geoproof encode  <input-file> <store-dir> --fid <id> --master <secret>
//! geoproof extract <store-dir> <output-file> --master <secret>
//! geoproof encode-dynamic <input-file> <store-dir> --fid <id> --master <secret>
//! geoproof update  <host:port> <store-dir> --index N --data <file> --master <secret>
//! geoproof append  <host:port> <store-dir> --data <file> --master <secret>
//! geoproof serve   <store-dir> [--delay-ms N] [--schedule <policy>]
//!                  [--metrics-addr <ip:port>]
//! geoproof audit   <host:port> <store-dir> --master <secret> [--dynamic] [--k N]
//! geoproof stats   <ip:port> [--watch]
//! geoproof info    <store-dir>
//! ```
//!
//! `encode` runs the paper's five-step setup **streaming**: the input is
//! fed through the encoder in bounded chunks (pass `-` to read stdin),
//! so peak memory is the encoded output arena plus one Reed–Solomon
//! chunk — never multiple copies of the file. The store directory
//! (`segments.bin` + `metadata.txt`) is written sequentially from the
//! arena. `serve` memory-maps nothing exotic: it reads `segments.bin`
//! into one shared buffer and serves zero-copy `Bytes` slices of it
//! from the multi-connection, session-multiplexing server (static and
//! dynamic stores alike, with per-session statistics). Serving runs on
//! the epoll **reactor** — every connection a non-blocking state
//! machine on one event-loop thread — and falls back to a thread per
//! connection only where the platform has no reactor.
//! `--schedule <policy>` additionally runs the continuous audit
//! scheduler: every hosted file is enrolled as a prover and re-audited
//! over loopback TCP on the policy's cadence, REJECTs fast-tracked
//! (see `geoproof_core::scheduler`). `audit` runs the
//! wall-clock timed challenge–response against a server and applies the
//! Δt_max policy. The TPA's MAC key is derived from `--master`, so
//! auditing needs the owner's secret (as in the paper, where the owner
//! provisions the TPA).
//!
//! The dynamic flow (`encode-dynamic` / `update` / `append` /
//! `audit --dynamic`) runs the §IV DPOR extension over the same wire:
//! Merkle-authenticated segments, owner-derived digests, and — with
//! `--ledger` — a chained record of every digest transition so offline
//! replay can hold each audit against the digest that was current. See
//! `crates/por/docs/dynamic.md`.
//!
//! Telemetry: `serve --metrics-addr` binds a Prometheus text-format
//! scrape listener next to the prover socket; one-shot `audit`
//! invocations push their verdict and session latency into it
//! (`POST /ingest`), and `stats` renders a scrape as a one-screen
//! summary. See `crates/obs/docs/observability.md`.

use bytes::Bytes;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::gps::GpsReceiver;
use geoproof::por::encode::{FileMetadata, PorEncoder};
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::por::stream::{default_encode_threads, ArenaSink, TaggedArena};
use geoproof::tcp_audit::WallClockVerifier;
use geoproof::wire::mux::MuxProverServer;
use geoproof::wire::tcp::SegmentStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "usage:
  geoproof encode  <input-file> <store-dir> --fid <id> --master <secret>
                   [--threads N]  (default: all cores; output is identical
                   at any thread count)
  geoproof extract <store-dir> <output-file> --master <secret>
  geoproof encode-dynamic <input-file> <store-dir> --fid <id> --master <secret>
                   [--segment-bytes N] [--ledger <path>]
  geoproof update  <host:port> <store-dir> --index N --data <file> --master <secret>
                   [--ledger <path>]
  geoproof append  <host:port> <store-dir> --data <file> --master <secret>
                   [--ledger <path>]
  geoproof serve   <store-dir> [--delay-ms N] [--schedule <policy>]
                   [--metrics-addr <ip:port>]
                   (policy: cadence=30s,jitter=0.2,reject-cadence=5s,
                    reject-rounds=3,max-in-flight=64,rate=200)
  geoproof audit   <host:port> <store-dir> --master <secret> [--dynamic] [--k N]
                   [--budget-ms N] [--ledger <path>] [--prover <id>]
                   [--transcript <path>] [--metrics-addr <ip:port>]
                   [--vantages N [--vantage-ring-km R] [--byzantine-vantage I]
                    [--position-tolerance-km T] [--residual-budget-km B]]
  geoproof stats   <ip:port> [--watch] [--raw] [--interval-ms N]
  geoproof info    <store-dir>
  geoproof ledger  verify  <path> [--tpa-pub <hex32>] [--master <secret>]
  geoproof ledger  inspect <path>
  geoproof ledger  rotate  <path> --master <secret>
  geoproof ledger  compact <path>
  geoproof ledger  prove   <path> --round <n> [--out <file>]";

type CliResult = Result<(), String>;

fn run(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "encode" => cmd_encode(rest),
        "extract" => cmd_extract(rest),
        "encode-dynamic" => cmd_encode_dynamic(rest),
        "update" => cmd_update_or_append(rest, true),
        "append" => cmd_update_or_append(rest, false),
        "serve" => cmd_serve(rest),
        "audit" => cmd_audit(rest),
        "stats" => cmd_stats(rest),
        "info" => cmd_info(rest),
        "ledger" => cmd_ledger(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Fetches `--name value` from the argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn positional(args: &[String], idx: usize) -> Result<&str, String> {
    args.iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .nth(idx)
        .ok_or_else(|| format!("missing positional argument {idx}"))
}

// --- store directory format -------------------------------------------------
// metadata.txt: key=value lines; segments.bin: u32-BE length-prefixed blobs.

/// Streams the encoded arena into `segments.bin` (buffered sequential
/// writes — the arena is the only full copy in memory).
fn write_store(dir: &Path, arena: &TaggedArena) -> CliResult {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let md = arena.metadata();
    let seg_file = std::fs::File::create(dir.join("segments.bin"))
        .map_err(|e| format!("segments.bin: {e}"))?;
    let mut w = std::io::BufWriter::new(seg_file);
    for seg in arena.iter() {
        w.write_all(&(seg.len() as u32).to_be_bytes())
            .and_then(|()| w.write_all(&seg))
            .map_err(|e| format!("write segment: {e}"))?;
    }
    w.flush().map_err(|e| format!("flush segments.bin: {e}"))?;
    let meta = format!(
        "file_id={}\noriginal_len={}\nraw_blocks={}\nencoded_blocks={}\nsegments={}\n",
        md.file_id, md.original_len, md.raw_blocks, md.encoded_blocks, md.segments
    );
    std::fs::write(dir.join("metadata.txt"), meta).map_err(|e| format!("metadata.txt: {e}"))
}

/// Reads a store back as zero-copy views: `segments.bin` is loaded into
/// one shared buffer and every segment is a slice of it.
fn read_store(dir: &Path) -> Result<(Vec<Bytes>, FileMetadata), String> {
    let meta_text = std::fs::read_to_string(dir.join("metadata.txt"))
        .map_err(|e| format!("metadata.txt: {e}"))?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for line in meta_text.lines() {
        if let Some((k, v)) = line.split_once('=') {
            fields.insert(k.trim(), v.trim());
        }
    }
    let get = |k: &str| -> Result<&str, String> {
        fields
            .get(k)
            .copied()
            .ok_or(format!("metadata missing {k}"))
    };
    let parse_u64 =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("bad {k}: {e}")) };
    let md = FileMetadata {
        file_id: get("file_id")?.to_owned(),
        original_len: parse_u64("original_len")?,
        raw_blocks: parse_u64("raw_blocks")?,
        encoded_blocks: parse_u64("encoded_blocks")?,
        segments: parse_u64("segments")?,
    };
    let mut raw = Vec::new();
    std::fs::File::open(dir.join("segments.bin"))
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| format!("segments.bin: {e}"))?;
    let bytes = Bytes::from(raw);
    let mut segments = Vec::with_capacity(md.segments as usize);
    let mut pos = 0usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err("segments.bin truncated".into());
        }
        segments.push(bytes.slice(pos..pos + len));
        pos += len;
    }
    if segments.len() as u64 != md.segments {
        return Err(format!(
            "metadata says {} segments, file holds {}",
            md.segments,
            segments.len()
        ));
    }
    Ok((segments, md))
}

// --- dynamic store directory format ------------------------------------------
// dyn-meta.txt: key=value lines; dyn-segments.bin: u32-BE length-prefixed
// *tagged* segments. The directory is the owner's mirror: `update`/`append`
// rewrite it as they ship tagged segments to the server, so the digest the
// next audit verifies against is always derivable locally — never taken
// from the provider.

/// Metadata of a dynamic store directory.
struct DynMeta {
    file_id: String,
    segments: u64,
    segment_bytes: u64,
    root: [u8; 32],
    /// The owner's update-authorisation public key; the server refuses
    /// unsigned mutations of this file.
    owner_pub: [u8; 32],
}

/// Default dynamic segment size (bodies; the 4-byte tag rides on top).
const DYN_SEGMENT_BYTES: usize = 4096;

fn write_dyn_store(
    dir: &Path,
    file_id: &str,
    tagged: &[Bytes],
    segment_bytes: u64,
    owner_pub: &[u8; 32],
) -> CliResult {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let seg_file = std::fs::File::create(dir.join("dyn-segments.bin"))
        .map_err(|e| format!("dyn-segments.bin: {e}"))?;
    let mut w = std::io::BufWriter::new(seg_file);
    for seg in tagged {
        w.write_all(&(seg.len() as u32).to_be_bytes())
            .and_then(|()| w.write_all(seg))
            .map_err(|e| format!("write segment: {e}"))?;
    }
    w.flush()
        .map_err(|e| format!("flush dyn-segments.bin: {e}"))?;
    let owner = geoproof::por::dynamic::DynamicOwner::from_tagged(file_id, tagged);
    let digest = owner.digest();
    let meta = format!(
        "file_id={file_id}\nsegments={}\nsegment_bytes={segment_bytes}\nroot={}\nowner_pub={}\n",
        tagged.len(),
        hex(&digest.root),
        hex(owner_pub),
    );
    std::fs::write(dir.join("dyn-meta.txt"), meta).map_err(|e| format!("dyn-meta.txt: {e}"))
}

/// Reads a dynamic store back; segments are slices of one shared buffer.
fn read_dyn_store(dir: &Path) -> Result<(Vec<Bytes>, DynMeta), String> {
    let meta_text = std::fs::read_to_string(dir.join("dyn-meta.txt"))
        .map_err(|e| format!("dyn-meta.txt: {e}"))?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for line in meta_text.lines() {
        if let Some((k, v)) = line.split_once('=') {
            fields.insert(k.trim(), v.trim());
        }
    }
    let get = |k: &str| -> Result<&str, String> {
        fields
            .get(k)
            .copied()
            .ok_or(format!("dyn-meta missing {k}"))
    };
    let meta = DynMeta {
        file_id: get("file_id")?.to_owned(),
        segments: get("segments")?
            .parse()
            .map_err(|e| format!("bad segments: {e}"))?,
        segment_bytes: get("segment_bytes")?
            .parse()
            .map_err(|e| format!("bad segment_bytes: {e}"))?,
        root: unhex32(get("root")?)?,
        owner_pub: unhex32(get("owner_pub")?)?,
    };
    let mut raw = Vec::new();
    std::fs::File::open(dir.join("dyn-segments.bin"))
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| format!("dyn-segments.bin: {e}"))?;
    let bytes = Bytes::from(raw);
    let mut tagged = Vec::with_capacity(meta.segments as usize);
    let mut pos = 0usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err("dyn-segments.bin truncated".into());
        }
        tagged.push(bytes.slice(pos..pos + len));
        pos += len;
    }
    if tagged.len() as u64 != meta.segments {
        return Err(format!(
            "dyn-meta says {} segments, file holds {}",
            meta.segments,
            tagged.len()
        ));
    }
    Ok((tagged, meta))
}

/// The owner mirror over the store's tagged segments, cross-checked
/// against the recorded root (catches a corrupted mirror before it is
/// used to derive audit digests).
fn dyn_owner(
    tagged: &[Bytes],
    meta: &DynMeta,
) -> Result<geoproof::por::dynamic::DynamicOwner, String> {
    let owner = geoproof::por::dynamic::DynamicOwner::from_tagged(&meta.file_id, tagged);
    let digest = owner.digest();
    if digest.root != meta.root {
        return Err(
            "owner mirror is corrupt: recomputed digest root does not match dyn-meta.txt".into(),
        );
    }
    Ok(owner)
}

/// Chains one digest transition into the evidence ledger.
fn append_digest_record(
    ledger_path: &str,
    master: &str,
    record: &geoproof::ledger::DigestRecord,
) -> CliResult {
    let tpa = tpa_ledger_key(master);
    let seed = fresh_seed_u64("digest-record");
    let (mut writer, recovery) = geoproof::ledger::LedgerWriter::open_or_create(
        ledger_path,
        &tpa,
        geoproof::ledger::DEFAULT_CHECKPOINT_INTERVAL,
        seed,
    )
    .map_err(|e| format!("ledger {ledger_path}: {e}"))?;
    if let geoproof::ledger::Recovery::TruncatedTail { dropped } = recovery {
        eprintln!("ledger: recovered torn tail write ({dropped} bytes truncated)");
    }
    writer
        .append_digest(record)
        .and_then(|()| writer.finish())
        .map_err(|e| format!("ledger {ledger_path}: {e}"))?;
    println!(
        "evidence: digest transition chained to {ledger_path} ({:?} {:?} → {} segments, root {})",
        record.op,
        record.file_id,
        record.new.segments,
        hex(&record.new.root[..8]),
    );
    Ok(())
}

// --- subcommands ---------------------------------------------------------------

/// Chunk size for streaming encode reads.
const ENCODE_CHUNK: usize = 256 * 1024;

fn cmd_encode(args: &[String]) -> CliResult {
    let input = positional(args, 0)?;
    let store = positional(args, 1)?.to_owned();
    let fid = flag(args, "--fid").ok_or("--fid required")?;
    let master = flag(args, "--master").ok_or("--master required")?;
    // Worker threads for the encode waves: --threads, else the
    // GEOPROOF_ENCODE_THREADS env var, else the machine's parallelism.
    // Output bytes are identical at every count.
    let threads = match flag(args, "--threads") {
        Some(t) => t
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--threads must be a positive integer, got {t:?}"))?,
        None => default_encode_threads(),
    };
    let encoder = PorEncoder::new(PorParams::paper());
    let keys = PorKeys::derive(master.as_bytes(), &fid);

    // The block permutation spans the whole encoded file, so the total
    // length must be known up front: regular files report it from
    // metadata and stream through in ENCODE_CHUNK pieces; stdin (`-`)
    // and non-regular inputs (FIFOs, /proc files — their stat length is
    // 0 or meaningless) are spooled first, then streamed.
    let is_regular = input != "-"
        && std::fs::metadata(input)
            .map_err(|e| format!("stat {input}: {e}"))?
            .is_file();
    let arena = if !is_regular {
        let mut data = Vec::new();
        if input == "-" {
            std::io::stdin()
                .read_to_end(&mut data)
                .map_err(|e| format!("read stdin: {e}"))?;
        } else {
            std::fs::File::open(input)
                .and_then(|mut f| f.read_to_end(&mut data))
                .map_err(|e| format!("read {input}: {e}"))?;
        }
        let mut stream = encoder.begin_encode_threads(
            &keys,
            &fid,
            data.len() as u64,
            ArenaSink::default(),
            threads,
        );
        stream.push(&data);
        drop(data);
        let (md, sink) = stream.finish();
        sink.into_arena(md)
    } else {
        let total = std::fs::metadata(input)
            .map_err(|e| format!("stat {input}: {e}"))?
            .len();
        let mut file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
        let mut stream =
            encoder.begin_encode_threads(&keys, &fid, total, ArenaSink::default(), threads);
        let mut buf = vec![0u8; ENCODE_CHUNK];
        // The layout was sized from the stat above; clamp to it so a file
        // that grows mid-encode yields exactly the declared prefix, and a
        // file that shrinks is a clean error rather than a panic.
        let mut fed = 0u64;
        while fed < total {
            let want = buf.len().min((total - fed) as usize);
            let n = file
                .read(&mut buf[..want])
                .map_err(|e| format!("read {input}: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "{input} shrank while encoding: got {fed} of {total} bytes"
                ));
            }
            stream.push(&buf[..n]);
            fed += n as u64;
        }
        let (md, sink) = stream.finish();
        sink.into_arena(md)
    };
    write_store(Path::new(&store), &arena)?;
    let md = arena.metadata();
    println!(
        "encoded {} bytes -> {} segments ({} bytes, +{:.1}%) in {store}",
        md.original_len,
        md.segments,
        arena.total_bytes(),
        (arena.total_bytes() as f64 / md.original_len.max(1) as f64 - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_extract(args: &[String]) -> CliResult {
    let store = positional(args, 0)?;
    let output = positional(args, 1)?;
    let master = flag(args, "--master").ok_or("--master required")?;
    let (segments, md) = read_store(Path::new(store))?;
    let encoder = PorEncoder::new(PorParams::paper());
    let keys = PorKeys::derive(master.as_bytes(), &md.file_id);
    let data = encoder
        .extract(&segments, &keys, &md)
        .map_err(|e| format!("extract: {e}"))?;
    std::fs::write(output, &data).map_err(|e| format!("write {output}: {e}"))?;
    println!("extracted {} bytes to {output}", data.len());
    Ok(())
}

/// Reads the `--data` payload (a file path, or `-` for stdin).
fn read_data_flag(args: &[String]) -> Result<Vec<u8>, String> {
    let source = flag(args, "--data").ok_or("--data required")?;
    let mut body = Vec::new();
    if source == "-" {
        std::io::stdin()
            .read_to_end(&mut body)
            .map_err(|e| format!("read stdin: {e}"))?;
    } else {
        std::fs::File::open(&source)
            .and_then(|mut f| f.read_to_end(&mut body))
            .map_err(|e| format!("read {source}: {e}"))?;
    }
    Ok(body)
}

fn cmd_encode_dynamic(args: &[String]) -> CliResult {
    use geoproof::por::dynamic::tag_segment;
    let input = positional(args, 0)?;
    let store = positional(args, 1)?.to_owned();
    let fid = flag(args, "--fid").ok_or("--fid required")?;
    let master = flag(args, "--master").ok_or("--master required")?;
    let segment_bytes: usize = flag(args, "--segment-bytes")
        .map(|v| v.parse().map_err(|e| format!("bad --segment-bytes: {e}")))
        .transpose()?
        .unwrap_or(DYN_SEGMENT_BYTES);
    if segment_bytes == 0 {
        return Err("--segment-bytes must be positive".into());
    }
    let mut data = Vec::new();
    if input == "-" {
        std::io::stdin()
            .read_to_end(&mut data)
            .map_err(|e| format!("read stdin: {e}"))?;
    } else {
        std::fs::File::open(input)
            .and_then(|mut f| f.read_to_end(&mut data))
            .map_err(|e| format!("read {input}: {e}"))?;
    }
    let keys = PorKeys::derive(master.as_bytes(), &fid);
    // An empty input still yields one (empty-bodied) segment: a dynamic
    // file always has at least one leaf to commit to.
    let bodies: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(segment_bytes).collect()
    };
    let tagged: Vec<Bytes> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| Bytes::from(tag_segment(&keys, &fid, i as u64, b)))
        .collect();
    let owner_pub = owner_update_key(&master, &fid).verifying_key().to_bytes();
    write_dyn_store(
        Path::new(&store),
        &fid,
        &tagged,
        segment_bytes as u64,
        &owner_pub,
    )?;
    let owner = geoproof::por::dynamic::DynamicOwner::from_tagged(&fid, &tagged);
    let digest = owner.digest();
    println!(
        "encoded {} bytes -> {} dynamic segments ({} bytes each) in {store}; digest root {}",
        data.len(),
        tagged.len(),
        segment_bytes,
        hex(&digest.root[..8]),
    );
    if let Some(ledger_path) = flag(args, "--ledger") {
        append_digest_record(
            &ledger_path,
            &master,
            &geoproof::ledger::DigestRecord {
                file_id: fid.clone(),
                op: geoproof::ledger::DigestOp::Init,
                index: 0,
                prev: geoproof::ledger::NO_DIGEST,
                new: digest,
            },
        )?;
    }
    Ok(())
}

fn cmd_update_or_append(args: &[String], is_update: bool) -> CliResult {
    let addr: std::net::SocketAddr = positional(args, 0)?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let store = positional(args, 1)?.to_owned();
    let master = flag(args, "--master").ok_or("--master required")?;
    let body = read_data_flag(args)?;
    let (mut tagged, meta) = read_dyn_store(Path::new(&store))?;
    let mut owner = dyn_owner(&tagged, &meta)?;
    let keys = PorKeys::derive(master.as_bytes(), &meta.file_id);
    let prev = owner.digest();

    // The owner tags and derives the expected digest first — the
    // provider's ack is *checked against* it, never adopted.
    let (new_tagged, expected, index, op) = if is_update {
        let index: u64 = flag(args, "--index")
            .ok_or("--index required")?
            .parse()
            .map_err(|e| format!("bad --index: {e}"))?;
        let (t, d) = owner
            .tag_update(index, &body, &keys)
            .map_err(|e| format!("update: {e}"))?;
        (t, d, index, geoproof::ledger::DigestOp::Update)
    } else {
        let index = prev.segments;
        let (t, d) = owner.tag_append(&body, &keys);
        (t, d, index, geoproof::ledger::DigestOp::Append)
    };
    let new_tagged = Bytes::from(new_tagged);

    // Authorise the mutation: the server holds the owner's public key
    // and refuses anything else (a third party reaching the socket must
    // not be able to rewrite segments and frame the provider).
    let signing = owner_update_key(&master, &meta.file_id);
    if signing.verifying_key().to_bytes() != meta.owner_pub {
        return Err("--master does not derive the owner key this store was encoded with".into());
    }
    let mut sig_rng = ChaChaRng::from_seed(fresh_seed("owner-auth"));
    let sig = signing
        .sign(
            &geoproof::por::dynamic::owner_authorization(
                &meta.file_id,
                !is_update,
                index,
                &new_tagged,
            ),
            &mut sig_rng,
        )
        .to_bytes();
    let mut client = geoproof::wire::tcp::TcpChallenger::connect(addr)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let ack = if is_update {
        client.update(&meta.file_id, index, new_tagged.clone(), sig)
    } else {
        client.append(&meta.file_id, new_tagged.clone(), sig)
    }
    .map_err(|e| format!("wire: {e}"))?;
    let _ = client.bye();
    match ack {
        None => {
            return Err(format!(
                "server refused the {}: unknown file or index out of range",
                if is_update { "update" } else { "append" }
            ))
        }
        Some(theirs) if theirs != expected => {
            return Err(format!(
                "server state diverged: its digest root {} ({} segments) != expected {} ({} \
                 segments) — its store is stale or corrupt",
                hex(&theirs.root[..8]),
                theirs.segments,
                hex(&expected.root[..8]),
                expected.segments,
            ))
        }
        Some(_) => {}
    }

    // Server landed on the owner's digest: persist the mirror.
    if is_update {
        tagged[index as usize] = new_tagged;
    } else {
        tagged.push(new_tagged);
    }
    write_dyn_store(
        Path::new(&store),
        &meta.file_id,
        &tagged,
        meta.segment_bytes,
        &meta.owner_pub,
    )?;
    println!(
        "{} segment {index} of {} @ {addr}: digest root {} → {} ({} segments)",
        if is_update { "updated" } else { "appended" },
        meta.file_id,
        hex(&prev.root[..8]),
        hex(&expected.root[..8]),
        expected.segments,
    );
    if let Some(ledger_path) = flag(args, "--ledger") {
        append_digest_record(
            &ledger_path,
            &master,
            &geoproof::ledger::DigestRecord {
                file_id: meta.file_id.clone(),
                op,
                index,
                prev,
                new: expected,
            },
        )?;
    }
    Ok(())
}

/// Continuous assurance for a long-lived server: every hosted file is
/// enrolled in the core [`AuditScheduler`](geoproof::core::AuditScheduler)
/// as a prover, and a background thread re-audits each one over
/// loopback TCP on the policy's cadence — a failed challenge puts the
/// file on the REJECT fast track, exactly as a TPA fleet would treat a
/// misbehaving site.
fn spawn_schedule_loop(
    policy: geoproof::core::SchedulePolicy,
    addr: std::net::SocketAddr,
    files: Vec<(String, u64, bool)>,
) {
    use geoproof::core::engine::ProverId;
    use geoproof::wire::TcpChallenger;

    let audit_once = move |file_id: &str, index: u64, dynamic: bool| -> bool {
        let Ok(mut c) = TcpChallenger::connect(addr) else {
            return false;
        };
        let ok = if dynamic {
            c.dyn_challenge(file_id, index)
                .is_ok_and(|(seg, _)| seg.is_some())
        } else {
            c.challenge(file_id, index)
                .is_ok_and(|(seg, _)| seg.is_some())
        };
        let _ = c.bye();
        ok
    };

    std::thread::Builder::new()
        .name("geoproof-schedule".into())
        .spawn(move || {
            let sched = geoproof::core::AuditScheduler::new(policy);
            let origin = std::time::Instant::now();
            let now_ns = |origin: &std::time::Instant| origin.elapsed().as_nanos() as u64;
            let meta: HashMap<String, (u64, bool)> = files
                .iter()
                .map(|(fid, segments, dynamic)| (fid.clone(), (*segments, *dynamic)))
                .collect();
            let mut rounds: HashMap<String, u64> = HashMap::new();
            for (fid, _, _) in &files {
                sched.register(&ProverId(fid.clone()), now_ns(&origin));
            }
            loop {
                for prover in sched.pop_due(now_ns(&origin)) {
                    let (segments, dynamic) = meta[&prover.0];
                    let round = rounds.entry(prover.0.clone()).or_insert(0);
                    // Walk the file round-robin so repeated audits cover
                    // every segment, not one lucky index.
                    let index = *round % segments.max(1);
                    *round += 1;
                    let ok = audit_once(&prover.0, index, dynamic);
                    if !ok {
                        println!(
                            "[schedule] REJECT {} (segment {index}); fast-track re-audit",
                            prover.0
                        );
                    }
                    sched.complete(&prover, ok, now_ns(&origin));
                }
                let sleep_ns = sched
                    .next_wakeup_ns()
                    .map(|at| at.saturating_sub(now_ns(&origin)))
                    .unwrap_or(500_000_000)
                    .clamp(1_000_000, 500_000_000);
                std::thread::sleep(std::time::Duration::from_nanos(sleep_ns));
            }
        })
        .expect("spawn schedule thread");
}

fn cmd_serve(args: &[String]) -> CliResult {
    let store_dir = Path::new(positional(args, 0)?);
    let delay_ms: u64 = flag(args, "--delay-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --delay-ms: {e}")))
        .transpose()?
        .unwrap_or(0);
    let schedule = flag(args, "--schedule")
        .map(|s| geoproof::core::SchedulePolicy::parse(&s))
        .transpose()
        .map_err(|e| format!("bad --schedule: {e}"))?;
    let delay = std::time::Duration::from_millis(delay_ms);

    // The scrape listener binds before the prover socket so the banner
    // order is fixed (metrics line first, serving line second — both
    // parseable by `split(" on ")`). Binding also enables the global
    // registry, so the server records its hot-path metrics. The handle
    // must outlive the serve loop.
    let _metrics = match flag(args, "--metrics-addr") {
        Some(addr) => {
            let server = geoproof::obs::expose::ScrapeServer::bind(&addr)
                .map_err(|e| format!("metrics bind {addr}: {e}"))?;
            println!("metrics on {} (GET /metrics, POST /ingest)", server.addr());
            Some(server)
        }
        None => None,
    };

    // The epoll shell wherever the platform has it; the blocking
    // thread-per-connection shell otherwise (same connection machine).
    let empty = || -> SegmentStore { Arc::new(Mutex::new(HashMap::new())) };
    let (server, model) = match MuxProverServer::spawn_reactor(empty(), delay) {
        Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
            (MuxProverServer::spawn(empty(), delay), "blocking")
        }
        spawned => (spawned, "reactor"),
    };
    let server = server.map_err(|e| format!("bind: {e}"))?;

    // A dynamic store dir (dyn-meta.txt present) is registered with its
    // owner's key — updates and appends arrive over the same socket
    // audits use; a static one is served as zero-copy segment views.
    let (file_id, segments, dynamic, detail) = if store_dir.join("dyn-meta.txt").exists() {
        let (tagged, meta) = read_dyn_store(store_dir)?;
        let owner_key = geoproof::crypto::schnorr::VerifyingKey::from_bytes(&meta.owner_pub)
            .ok_or("owner_pub in dyn-meta.txt is not a valid curve point")?;
        let digest = server.put_dynamic_with_owner(&meta.file_id, tagged, owner_key);
        let detail = format!(
            "{} dynamic segments, digest root {}",
            digest.segments,
            hex(&digest.root[..8])
        );
        (meta.file_id, digest.segments, true, detail)
    } else {
        let (segments, md) = read_store(store_dir)?;
        server.put_shared(&md.file_id, segments);
        let detail = format!("{} segments", md.segments);
        (md.file_id, md.segments, false, detail)
    };
    let mode = if dynamic { "dynamic mode, " } else { "" };
    println!(
        "serving {file_id} ({detail}) on {} ({mode}{model}, service delay {delay_ms} ms); \
         Ctrl-C to stop",
        server.addr()
    );
    if let Some(policy) = schedule {
        spawn_schedule_loop(policy, server.addr(), vec![(file_id, segments, dynamic)]);
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        let stats = server.stats();
        println!(
            "[stats] connections {} | sessions {} | challenges {}",
            stats.connections, stats.sessions, stats.challenges
        );
    }
}

fn cmd_audit(args: &[String]) -> CliResult {
    let multi = args.iter().any(|a| a == "--vantages");
    if args.iter().any(|a| a == "--dynamic") {
        if multi {
            return Err("--vantages does not combine with --dynamic".into());
        }
        return cmd_audit_dynamic(args);
    }
    if multi {
        return cmd_audit_multi_vantage(args);
    }
    let addr: std::net::SocketAddr = positional(args, 0)?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let store = positional(args, 1)?;
    let master = flag(args, "--master").ok_or("--master required")?;
    let k: u32 = flag(args, "--k")
        .map(|v| v.parse().map_err(|e| format!("bad --k: {e}")))
        .transpose()?
        .unwrap_or(20);
    let budget_ms: f64 = flag(args, "--budget-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --budget-ms: {e}")))
        .transpose()?
        .unwrap_or(16.0);
    let (_segments, md) = read_store(Path::new(store))?;
    let params = PorParams::paper();
    let keys = PorKeys::derive(master.as_bytes(), &md.file_id);

    // Per-invocation entropy: a fixed seed here would reissue the same
    // nonce and the same challenge subset every run — a dishonest
    // server could keep just those segments, and any old transcript
    // would satisfy any later audit's nonce check.
    let mut rng = ChaChaRng::from_seed(fresh_seed("device-key"));
    let device_key = SigningKey::generate(&mut rng);
    let mut verifier = WallClockVerifier::new(
        device_key.clone(),
        GpsReceiver::new(BRISBANE),
        fresh_seed_u64("challenges"),
    );
    let mut auditor = geoproof::core::auditor::Auditor::new(
        md.file_id.clone(),
        md.segments,
        PorEncoder::new(params),
        keys.auditor_view(),
        device_key.verifying_key(),
        BRISBANE,
        geoproof::sim::time::Km(25.0),
        geoproof::core::policy::TimingPolicy {
            max_network: geoproof::sim::time::SimDuration::from_millis_f64(budget_ms / 2.0),
            max_lookup: geoproof::sim::time::SimDuration::from_millis_f64(budget_ms / 2.0),
        },
        fresh_seed_u64("nonce"),
    );
    let request = auditor.issue_request(k);
    let session_started = std::time::Instant::now();
    let transcript = verifier
        .run_audit(&request, addr)
        .map_err(|e| format!("audit I/O: {e}"))?;
    let session_elapsed = session_started.elapsed();

    // Durable outputs before the verdict decides the exit code: the
    // canonical transcript bytes, and the evidence ledger (a REJECT is
    // evidence too — the whole point is that it outlives this process).
    if let Some(t_path) = flag(args, "--transcript") {
        std::fs::write(&t_path, transcript.canonical_bytes())
            .map_err(|e| format!("write {t_path}: {e}"))?;
        println!("transcript: canonical bytes written to {t_path}");
    }
    let report = match flag(args, "--ledger") {
        None => auditor.verify(&request, &transcript),
        Some(ledger_path) => {
            let tpa = tpa_ledger_key(&master);
            let seed = u64::from_be_bytes(request.nonce[..8].try_into().expect("8 bytes"));
            let (mut writer, recovery) = geoproof::ledger::LedgerWriter::open_or_create(
                &ledger_path,
                &tpa,
                geoproof::ledger::DEFAULT_CHECKPOINT_INTERVAL,
                seed,
            )
            .map_err(|e| format!("ledger {ledger_path}: {e}"))?;
            if let geoproof::ledger::Recovery::TruncatedTail { dropped } = recovery {
                eprintln!("ledger: recovered torn tail write ({dropped} bytes truncated)");
            }
            let prover = flag(args, "--prover").unwrap_or_else(|| addr.to_string());
            let epoch = writer.next_epoch(&prover);
            let (report, bundle) = auditor.verify_evidence(&request, &transcript, prover, epoch);
            writer
                .append_bundle(&bundle)
                .and_then(|()| writer.finish())
                .map_err(|e| format!("ledger {ledger_path}: {e}"))?;
            println!(
                "evidence: record {} appended to {ledger_path} (prover {:?}, epoch {epoch}), \
                 sealed; chain head {}",
                writer.evidence_count() - 1,
                bundle.prover,
                hex(&writer.head()[..8]),
            );
            println!(
                "          TPA public key {}",
                hex(&tpa.verifying_key().to_bytes())
            );
            report
        }
    };
    println!(
        "audit of {} @ {addr}: {} challenges, max Δt' = {:.3} ms (budget {budget_ms} ms)",
        md.file_id,
        k,
        report.max_rtt.as_millis_f64()
    );
    println!("segments verified: {}/{k}", report.segments_ok);
    for v in &report.violations {
        println!("violation: {v}");
    }
    println!(
        "verdict: {}",
        if report.accepted() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    if let Some(maddr) = flag(args, "--metrics-addr") {
        push_verdict_metrics(&maddr, report.accepted(), Some(session_elapsed));
    }
    if report.accepted() {
        Ok(())
    } else {
        Err("audit rejected".into())
    }
}

/// Reports a one-shot audit's verdict into a long-lived server's
/// registry over the `POST /ingest` push path: this process exits
/// before any scraper could reach it, so it pushes instead of hosting
/// its own scrape target. Telemetry must never change an audit's
/// outcome — failures only warn.
fn push_verdict_metrics(metrics_addr: &str, accepted: bool, session: Option<std::time::Duration>) {
    let outcome = if accepted { "accept" } else { "reject" };
    let mut body = format!("counter audit_verdicts_total{{outcome=\"{outcome}\"}} 1\n");
    if let Some(session) = session {
        body.push_str(&format!(
            "observe audit_session_latency_us {}\n",
            session.as_micros()
        ));
    }
    if let Err(e) = geoproof::obs::expose::push(metrics_addr, &body) {
        eprintln!("warning: metrics push to {metrics_addr} failed: {e}");
    }
}

/// Positions vantage `i` of `n` on a ring of `radius_km` around
/// `center` (equal bearings; small-offset tangent-plane placement).
fn ring_vantage(
    center: geoproof::geo::coords::GeoPoint,
    radius_km: f64,
    i: usize,
    n: usize,
) -> geoproof::geo::coords::GeoPoint {
    const KM_PER_DEG_LAT: f64 = 111.32;
    let theta = std::f64::consts::TAU * (i as f64) / (n as f64);
    let lat = (center.lat + radius_km * theta.cos() / KM_PER_DEG_LAT).clamp(-90.0, 90.0);
    let lon_scale = KM_PER_DEG_LAT * center.lat.to_radians().cos().abs().max(0.1);
    let lon = (center.lon + radius_km * theta.sin() / lon_scale + 180.0).rem_euclid(360.0) - 180.0;
    geoproof::geo::coords::GeoPoint::new(lat, lon)
}

/// The §V-C(b) countermeasure taken multi-vantage: N verifier devices
/// at known ring coordinates run concurrent timed sessions against the
/// one prover, each vantage's fastest Δt becomes a range, and the
/// outlier-robust aggregate is held against the SLA coordinates. A
/// minority of lying or laggy vantages (f < N/2) is trimmed rather
/// than trusted; `--byzantine-vantage I` forces vantage I to report a
/// wildly inflated Δt so the trim can be demonstrated end-to-end.
fn cmd_audit_multi_vantage(args: &[String]) -> CliResult {
    use geoproof::core::vantage::{
        aggregate_vantages, observation_range, VantageObservation, VantagePolicy,
    };
    use geoproof::net::wan::{AccessKind, WanModel};
    use geoproof::sim::time::{Km, SimDuration};

    let addr: std::net::SocketAddr = positional(args, 0)?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let store = positional(args, 1)?;
    let master = flag(args, "--master").ok_or("--master required")?;
    let n: usize = flag(args, "--vantages")
        .ok_or("--vantages required")?
        .parse()
        .map_err(|e| format!("bad --vantages: {e}"))?;
    if !(1..=64).contains(&n) {
        return Err("--vantages must be between 1 and 64".into());
    }
    let k: u32 = flag(args, "--k")
        .map(|v| v.parse().map_err(|e| format!("bad --k: {e}")))
        .transpose()?
        .unwrap_or(20);
    let budget_ms: f64 = flag(args, "--budget-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --budget-ms: {e}")))
        .transpose()?
        .unwrap_or(16.0);
    let ring_km: f64 = flag(args, "--vantage-ring-km")
        .map(|v| v.parse().map_err(|e| format!("bad --vantage-ring-km: {e}")))
        .transpose()?
        .unwrap_or(100.0);
    if !ring_km.is_finite() || ring_km <= 0.0 || ring_km > 5000.0 {
        return Err("--vantage-ring-km must be in (0, 5000]".into());
    }
    let byzantine: Option<usize> = flag(args, "--byzantine-vantage")
        .map(|v| {
            v.parse()
                .map_err(|e| format!("bad --byzantine-vantage: {e}"))
        })
        .transpose()?;
    if let Some(b) = byzantine {
        if b >= n {
            return Err(format!(
                "--byzantine-vantage {b} out of range (vantages: {n})"
            ));
        }
    }
    let (_segments, md) = read_store(Path::new(store))?;
    let params = PorParams::paper();
    let keys = PorKeys::derive(master.as_bytes(), &md.file_id);
    let sla = BRISBANE;

    // Range calibration under the paper's WAN model; localhost Δt sits
    // below the fixed overhead, so honest ranges floor at zero and the
    // aggregate's residual is ≈ the ring radius — budget accordingly.
    let (speed, overhead) = WanModel::calibrated(AccessKind::Fibre).ranging_calibration();
    let policy = VantagePolicy {
        ranging_speed: speed,
        ranging_overhead: overhead,
        position_tolerance: Km(flag(args, "--position-tolerance-km")
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("bad --position-tolerance-km: {e}"))
            })
            .transpose()?
            .unwrap_or(60.0)),
        residual_budget: Km(flag(args, "--residual-budget-km")
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("bad --residual-budget-km: {e}"))
            })
            .transpose()?
            .unwrap_or(ring_km + 60.0)),
    };

    // Each vantage is its own verifier device: own key, own GPS fix at
    // its ring coordinates, own challenge subset, own timed TCP session.
    // Sessions run concurrently (the prover multiplexes them) — the
    // whole point is N simultaneous Δt views.
    let timing = geoproof::core::policy::TimingPolicy {
        max_network: SimDuration::from_millis_f64(budget_ms / 2.0),
        max_lookup: SimDuration::from_millis_f64(budget_ms / 2.0),
    };
    let mut handles = Vec::with_capacity(n);
    for v in 0..n {
        let position = ring_vantage(sla, ring_km, v, n);
        let file_id = md.file_id.clone();
        let segments = md.segments;
        let auditor_keys = keys.auditor_view();
        handles.push((
            position,
            std::thread::spawn(move || -> Result<_, String> {
                let mut rng = ChaChaRng::from_seed(fresh_seed(&format!("vantage-{v}-key")));
                let device_key = SigningKey::generate(&mut rng);
                let mut verifier = WallClockVerifier::new(
                    device_key.clone(),
                    GpsReceiver::new(position),
                    fresh_seed_u64(&format!("vantage-{v}-challenges")),
                );
                let mut auditor = geoproof::core::auditor::Auditor::new(
                    file_id,
                    segments,
                    PorEncoder::new(params),
                    auditor_keys,
                    device_key.verifying_key(),
                    position,
                    geoproof::sim::time::Km(25.0),
                    timing,
                    fresh_seed_u64(&format!("vantage-{v}-nonce")),
                );
                let request = auditor.issue_request(k);
                let transcript = verifier
                    .run_audit(&request, addr)
                    .map_err(|e| format!("vantage {v} audit I/O: {e}"))?;
                Ok((auditor, request, transcript))
            }),
        ));
    }

    // Collect in vantage order; a dead session is a hard error — the
    // fleet geometry is meaningless with holes in it.
    let mut sessions = Vec::with_capacity(n);
    for (position, handle) in handles {
        let (auditor, request, transcript) = handle
            .join()
            .map_err(|_| "vantage thread panicked".to_owned())??;
        sessions.push((position, auditor, request, transcript));
    }

    // Convert each vantage's fastest round into a range measurement; a
    // forced-Byzantine vantage reports its Δt inflated by 30 ms (≈ a
    // few thousand km), exactly the lie the trim must survive.
    let mut ranges = Vec::with_capacity(n);
    let mut observations = Vec::with_capacity(n);
    for (v, (position, _, _, transcript)) in sessions.iter().enumerate() {
        let mut min_rtt = transcript
            .rounds
            .iter()
            .map(|r| r.rtt)
            .min()
            .ok_or(format!("vantage {v}: empty transcript"))?;
        if byzantine == Some(v) {
            min_rtt += SimDuration::from_millis(30);
            println!("vantage {v}: FORCED BYZANTINE — reported Δt inflated by 30 ms");
        }
        let obs = VantageObservation {
            vantage: *position,
            min_rtt,
        };
        ranges.push(observation_range(&obs, &policy));
        observations.push(obs);
    }

    // Timed verdicts (majority vote) and, with --ledger, one evidence
    // record per vantage plus the aggregate position record — all of it
    // replayable offline from the TPA public key alone.
    let mut accepted_timing = 0usize;
    let ledger_path = flag(args, "--ledger");
    let prover = flag(args, "--prover").unwrap_or_else(|| addr.to_string());
    let mut writer_and_first_epoch: Option<(geoproof::ledger::LedgerWriter, u64)> = None;
    if let Some(path) = &ledger_path {
        let tpa = tpa_ledger_key(&master);
        let (writer, recovery) = geoproof::ledger::LedgerWriter::open_or_create(
            path,
            &tpa,
            geoproof::ledger::DEFAULT_CHECKPOINT_INTERVAL,
            fresh_seed_u64("multi-vantage-ledger"),
        )
        .map_err(|e| format!("ledger {path}: {e}"))?;
        if let geoproof::ledger::Recovery::TruncatedTail { dropped } = recovery {
            eprintln!("ledger: recovered torn tail write ({dropped} bytes truncated)");
        }
        writer_and_first_epoch = Some((writer, 0));
    }
    for (v, (position, auditor, request, transcript)) in sessions.iter_mut().enumerate() {
        let report = match &mut writer_and_first_epoch {
            None => auditor.verify(request, transcript),
            Some((writer, first_epoch)) => {
                let epoch = writer.next_epoch(&prover);
                if v == 0 {
                    *first_epoch = epoch;
                }
                let (report, bundle) =
                    auditor.verify_evidence(request, transcript, prover.clone(), epoch);
                writer
                    .append_bundle(&bundle)
                    .map_err(|e| format!("ledger: {e}"))?;
                report
            }
        };
        if report.accepted() {
            accepted_timing += 1;
        }
        println!(
            "vantage {v} @ ({:+.3}, {:+.3}): min Δt' {:.3} ms, max Δt' {:.3} ms, range {:.1} km → {}",
            position.lat,
            position.lon,
            observations[v].min_rtt.as_millis_f64(),
            report.max_rtt.as_millis_f64(),
            ranges[v].distance.0,
            if report.accepted() { "ACCEPT" } else { "REJECT" }
        );
    }

    let estimate = aggregate_vantages(
        sla,
        &ranges,
        policy.position_tolerance,
        policy.residual_budget,
    );
    let timing_ok = accepted_timing * 2 > n;
    let geometry_ok = estimate.as_ref().map_or(ranges.len() < 3, |e| e.consistent);
    let accepted = timing_ok && geometry_ok;

    if let Some((mut writer, first_epoch)) = writer_and_first_epoch {
        let bundle = geoproof::core::evidence::PositionBundle {
            prover: prover.clone(),
            first_epoch,
            sla_location: sla,
            position_tolerance: policy.position_tolerance,
            residual_budget: policy.residual_budget,
            vantages: ranges.clone(),
            estimate: estimate.clone(),
        };
        writer
            .append_position_bundle(&bundle)
            .and_then(|()| writer.finish())
            .map_err(|e| format!("ledger: {e}"))?;
        let path = ledger_path.as_deref().unwrap_or("?");
        println!(
            "evidence: {n} audit records + 1 position record appended to {path}; chain head {}",
            hex(&writer.head()[..8]),
        );
        println!(
            "          TPA public key {}",
            hex(&tpa_ledger_key(&master).verifying_key().to_bytes())
        );
    }

    println!(
        "multi-vantage audit of {} @ {addr}: {n} vantages on a {ring_km} km ring, k={k} each",
        md.file_id
    );
    println!(
        "timing  : {accepted_timing}/{n} vantage audits accepted (majority {})",
        if timing_ok { "OK" } else { "FAILED" }
    );
    match &estimate {
        Some(e) => {
            let inliers = e.inliers.iter().filter(|&&i| i).count();
            println!(
                "geometry: estimate ({:+.3}, {:+.3}), {:.1} km from SLA claim (tolerance {:.1}), \
                 rms residual {:.1} km (budget {:.1}), {inliers}/{n} inliers → {}",
                e.position.lat,
                e.position.lon,
                e.discrepancy.0,
                policy.position_tolerance.0,
                e.rms_inlier_residual.0,
                policy.residual_budget.0,
                if e.consistent {
                    "CONSISTENT"
                } else {
                    "INCONSISTENT"
                }
            );
        }
        None if ranges.len() < 3 => {
            println!("geometry: fewer than 3 vantages — timing verdict only");
        }
        None => {
            println!("geometry: DEGENERATE (no usable estimate from {n} vantages) → fail closed");
        }
    }
    println!("verdict : {}", if accepted { "ACCEPT" } else { "REJECT" });
    if let Some(maddr) = flag(args, "--metrics-addr") {
        // One aggregate verdict; no single session latency to report.
        push_verdict_metrics(&maddr, accepted, None);
    }
    if accepted {
        Ok(())
    } else {
        Err("multi-vantage audit rejected".into())
    }
}

fn cmd_audit_dynamic(args: &[String]) -> CliResult {
    let addr: std::net::SocketAddr = positional(args, 0)?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let store = positional(args, 1)?;
    let master = flag(args, "--master").ok_or("--master required")?;
    let k: u32 = flag(args, "--k")
        .map(|v| v.parse().map_err(|e| format!("bad --k: {e}")))
        .transpose()?
        .unwrap_or(20);
    let budget_ms: f64 = flag(args, "--budget-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --budget-ms: {e}")))
        .transpose()?
        .unwrap_or(16.0);
    let (tagged, meta) = read_dyn_store(Path::new(store))?;
    let owner = dyn_owner(&tagged, &meta)?;
    let digest = owner.digest();
    let keys = PorKeys::derive(master.as_bytes(), &meta.file_id);
    let k = k.min(digest.segments.min(u64::from(u32::MAX)) as u32);

    let mut rng = ChaChaRng::from_seed(fresh_seed("device-key"));
    let device_key = SigningKey::generate(&mut rng);
    let mut verifier = WallClockVerifier::new(
        device_key.clone(),
        GpsReceiver::new(BRISBANE),
        fresh_seed_u64("challenges"),
    );
    let mut auditor = geoproof::core::dynamic_audit::DynAuditor::new(
        meta.file_id.clone(),
        keys.auditor_view(),
        device_key.verifying_key(),
        BRISBANE,
        geoproof::sim::time::Km(25.0),
        geoproof::core::policy::TimingPolicy {
            max_network: geoproof::sim::time::SimDuration::from_millis_f64(budget_ms / 2.0),
            max_lookup: geoproof::sim::time::SimDuration::from_millis_f64(budget_ms / 2.0),
        },
        fresh_seed_u64("nonce"),
    );
    let request = auditor.issue_request(digest, k);
    let session_started = std::time::Instant::now();
    let transcript = verifier
        .run_dyn_audit(&request, addr)
        .map_err(|e| format!("audit I/O: {e}"))?;
    let session_elapsed = session_started.elapsed();

    if let Some(t_path) = flag(args, "--transcript") {
        std::fs::write(&t_path, transcript.canonical_bytes())
            .map_err(|e| format!("write {t_path}: {e}"))?;
        println!("transcript: canonical dynamic bytes written to {t_path}");
    }
    let report = match flag(args, "--ledger") {
        None => auditor.verify(&request, &transcript),
        Some(ledger_path) => {
            let tpa = tpa_ledger_key(&master);
            let seed = u64::from_be_bytes(request.nonce[..8].try_into().expect("8 bytes"));
            let (mut writer, recovery) = geoproof::ledger::LedgerWriter::open_or_create(
                &ledger_path,
                &tpa,
                geoproof::ledger::DEFAULT_CHECKPOINT_INTERVAL,
                seed,
            )
            .map_err(|e| format!("ledger {ledger_path}: {e}"))?;
            if let geoproof::ledger::Recovery::TruncatedTail { dropped } = recovery {
                eprintln!("ledger: recovered torn tail write ({dropped} bytes truncated)");
            }
            let prover = flag(args, "--prover").unwrap_or_else(|| addr.to_string());
            let epoch = writer.next_epoch(&prover);
            let (report, bundle) = auditor.verify_evidence(&request, &transcript, prover, epoch);
            writer
                .append_dyn_bundle(&bundle)
                .and_then(|()| writer.finish())
                .map_err(|e| format!("ledger {ledger_path}: {e}"))?;
            println!(
                "evidence: dynamic record {} appended to {ledger_path} (prover {:?}, epoch \
                 {epoch}), sealed; chain head {}",
                writer.evidence_count() - 1,
                bundle.prover,
                hex(&writer.head()[..8]),
            );
            println!(
                "          TPA public key {}",
                hex(&tpa.verifying_key().to_bytes())
            );
            report
        }
    };
    println!(
        "dynamic audit of {} @ {addr}: {} challenges against digest root {} ({} segments), \
         max Δt' = {:.3} ms (budget {budget_ms} ms)",
        meta.file_id,
        k,
        hex(&digest.root[..8]),
        digest.segments,
        report.max_rtt.as_millis_f64()
    );
    println!("segments verified: {}/{k}", report.segments_ok);
    for v in &report.violations {
        println!("violation: {v}");
    }
    println!(
        "verdict: {}",
        if report.accepted() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    if let Some(maddr) = flag(args, "--metrics-addr") {
        push_verdict_metrics(&maddr, report.accepted(), Some(session_elapsed));
    }
    if report.accepted() {
        Ok(())
    } else {
        Err("audit rejected".into())
    }
}

// --- observability -----------------------------------------------------------

fn cmd_stats(args: &[String]) -> CliResult {
    use geoproof::obs::expose::{scrape, TextMetrics};
    let addr = positional(args, 0)?.to_owned();
    let watch = args.iter().any(|a| a == "--watch");
    let raw = args.iter().any(|a| a == "--raw");
    let interval_ms: u64 = flag(args, "--interval-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --interval-ms: {e}")))
        .transpose()?
        .unwrap_or(2000);
    loop {
        let body = scrape(addr.as_str()).map_err(|e| format!("scrape {addr}: {e}"))?;
        if raw {
            print!("{body}");
        } else {
            print!("{}", render_stats(&TextMetrics::parse(&body), &addr));
        }
        if !watch {
            return Ok(());
        }
        std::io::stdout()
            .flush()
            .map_err(|e| format!("stdout: {e}"))?;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
        println!("---");
    }
}

/// One-screen rendering of a parsed exposition: scalar series first,
/// then each histogram reduced to count / mean / p50 / p99.
fn render_stats(m: &geoproof::obs::expose::TextMetrics, addr: &str) -> String {
    let mut out = format!("metrics @ {addr}\n");
    if m.samples.is_empty() && m.histograms.is_empty() {
        out.push_str("  (no series recorded yet)\n");
        return out;
    }
    for (name, value) in &m.samples {
        out.push_str(&format!("  {name:<52} {value}\n"));
    }
    for (name, h) in &m.histograms {
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum / h.count as f64
        };
        out.push_str(&format!(
            "  {name:<52} count {} mean {mean:.1} p50 {} p99 {}\n",
            h.count,
            h.quantile(0.5),
            h.quantile(0.99),
        ));
    }
    out
}

// --- evidence ledger ---------------------------------------------------------

/// The TPA's ledger signing key, derived deterministically from the
/// master secret (the owner provisions the TPA, as with the MAC key).
/// Only the *public* half is needed to re-verify a ledger.
fn tpa_ledger_key(master: &str) -> geoproof::crypto::schnorr::SigningKey {
    let mut h = geoproof::crypto::sha256::Sha256::new();
    h.update(b"geoproof-tpa-ledger-key-v1");
    h.update(master.as_bytes());
    let mut rng = ChaChaRng::from_seed(h.finalize());
    geoproof::crypto::schnorr::SigningKey::generate(&mut rng)
}

/// The owner's update-authorisation signing key, derived from the
/// master secret per file — the *public* half is registered with the
/// server (via the store dir's metadata) so it can refuse mutations a
/// third party forges.
fn owner_update_key(master: &str, file_id: &str) -> geoproof::crypto::schnorr::SigningKey {
    let mut h = geoproof::crypto::sha256::Sha256::new();
    h.update(b"geoproof-dyn-owner-key-v1");
    h.update(&(master.len() as u64).to_be_bytes());
    h.update(master.as_bytes());
    h.update(file_id.as_bytes());
    let mut rng = ChaChaRng::from_seed(h.finalize());
    geoproof::crypto::schnorr::SigningKey::generate(&mut rng)
}

/// Per-invocation entropy for the audit's nonce, challenge draws and
/// ephemeral device key: `/dev/urandom` when available, always mixed
/// with wall-clock time and pid, domain-separated by `label`. (The
/// deterministic fixed-seed style the simulations use is exactly wrong
/// here — a real audit's unpredictability is its security.)
fn fresh_seed(label: &str) -> [u8; 32] {
    let mut h = geoproof::crypto::sha256::Sha256::new();
    h.update(b"geoproof-cli-entropy-v1");
    h.update(label.as_bytes());
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        let mut buf = [0u8; 32];
        if f.read_exact(&mut buf).is_ok() {
            h.update(&buf);
        }
    }
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    h.update(&now.as_nanos().to_be_bytes());
    h.update(&std::process::id().to_be_bytes());
    h.finalize()
}

fn fresh_seed_u64(label: &str) -> u64 {
    u64::from_be_bytes(fresh_seed(label)[..8].try_into().expect("8 bytes"))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex32(s: &str) -> Result<[u8; 32], String> {
    let s = s.trim();
    if s.len() != 64 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err("expected 64 hex characters (32 bytes)".into());
    }
    let mut out = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        out[i] = u8::from_str_radix(std::str::from_utf8(chunk).expect("hex ascii"), 16)
            .map_err(|e| format!("bad hex: {e}"))?;
    }
    Ok(out)
}

fn cmd_ledger(args: &[String]) -> CliResult {
    let Some(sub) = args.first() else {
        return Err("ledger: missing subcommand (verify|inspect|rotate|compact|prove)".into());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "verify" => cmd_ledger_verify(rest),
        "inspect" => cmd_ledger_inspect(rest),
        "rotate" => cmd_ledger_rotate(rest),
        "compact" => cmd_ledger_compact(rest),
        "prove" => cmd_ledger_prove(rest),
        other => Err(format!("unknown ledger subcommand {other:?}")),
    }
}

/// `--master`-derived MAC checker for `ledger verify`: static records
/// re-derive through the POR encoder's segment MAC; dynamic records
/// through the dynamic tag scheme. One KDF per file id, memoised.
struct CliMacCheck {
    master: String,
    encoder: PorEncoder,
    keys_by_fid: std::cell::RefCell<HashMap<String, PorKeys>>,
}

impl CliMacCheck {
    fn with_keys<R>(&self, fid: &str, f: impl FnOnce(&PorKeys) -> R) -> R {
        let mut cache = self.keys_by_fid.borrow_mut();
        let keys = cache
            .entry(fid.to_owned())
            .or_insert_with(|| PorKeys::derive(self.master.as_bytes(), fid));
        f(keys)
    }
}

impl geoproof::ledger::SegmentMacCheck for CliMacCheck {
    fn verify(&self, fid: &str, index: u64, payload: &[u8]) -> bool {
        self.with_keys(fid, |keys| {
            self.encoder
                .verify_segment(keys.auditor_view().mac_key(), fid, index, payload)
        })
    }

    fn verify_dynamic(&self, fid: &str, index: u64, payload: &[u8]) -> bool {
        self.with_keys(fid, |keys| {
            geoproof::por::dynamic::verify_tagged(keys.mac_key(), fid, index, payload)
        })
    }
}

fn cmd_ledger_verify(args: &[String]) -> CliResult {
    use geoproof::ledger::{replay, Ledger, SegmentMacCheck};
    let path = positional(args, 0)?;
    let ledger = Ledger::read(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;

    // Trust root for the replay: an out-of-band key beats one derived
    // from --master, which beats trusting the file's embedded key.
    let (tpa_bytes, key_source) = if let Some(hexkey) = flag(args, "--tpa-pub") {
        (unhex32(&hexkey)?, "--tpa-pub")
    } else if let Some(master) = flag(args, "--master") {
        (
            tpa_ledger_key(&master).verifying_key().to_bytes(),
            "derived from --master",
        )
    } else {
        (
            ledger.header().tpa_key,
            "embedded in file — pass --tpa-pub to pin an out-of-band key",
        )
    };
    let tpa = geoproof::crypto::schnorr::VerifyingKey::from_bytes(&tpa_bytes)
        .ok_or("TPA key is not a valid curve point")?;

    // With the owner's secret the recorded MAC bits are re-derived too —
    // under the static scheme for static records and the dynamic tag
    // scheme for dynamic ones. Keys are memoised per file id.
    let mac_check = flag(args, "--master").map(|master| CliMacCheck {
        master,
        encoder: PorEncoder::new(PorParams::paper()),
        keys_by_fid: std::cell::RefCell::new(HashMap::new()),
    });

    // A rotated chain (any `<path>.seg-*` next to the live file) is
    // verified whole: every present file fully replayed, compacted
    // summaries checked from the TPA key, continuity and the forest
    // digest enforced across every segment boundary.
    let segments =
        geoproof::ledger::discover(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    if !segments.is_empty() {
        let chain = geoproof::ledger::verify_chain(
            Path::new(path),
            &tpa,
            mac_check.as_ref().map(|f| f as &dyn SegmentMacCheck),
        )
        .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: chain of {} sealed segments + live file — {} sealed records total, chain OK",
            chain.segments, chain.total_sealed
        );
        println!("tpa key : {} ({key_source})", hex(&tpa_bytes));
        println!(
            "forest  : {} (roll-up of every sealed segment's final checkpoint root)",
            hex(&chain.forest)
        );
        println!(
            "replay  : {} files fully replayed — {} ACCEPT, {} REJECT; {} compacted segments \
             verified at summary strength where the archive is gone",
            chain.replayed, chain.accepted, chain.rejected, chain.compacted
        );
        return Ok(());
    }

    let outcome = replay(
        &ledger,
        &tpa,
        mac_check.as_ref().map(|f| f as &dyn SegmentMacCheck),
    )
    .map_err(|e| format!("{path}: {e}"))?;

    println!(
        "{path}: {} records ({} evidence, {} dynamic, {} digest transitions, {} position \
         estimates, {} checkpoints), chain OK",
        outcome.records,
        outcome.evidence,
        outcome.dynamic,
        outcome.digests,
        outcome.positions,
        outcome.checkpoints
    );
    println!("tpa key : {} ({key_source})", hex(&tpa_bytes));
    println!(
        "head    : {} (compare out-of-band to rule out truncation)",
        hex(&outcome.head)
    );
    println!(
        "replay  : {} verdicts re-derived byte-identically — {} ACCEPT, {} REJECT{}",
        outcome.evidence + outcome.dynamic,
        outcome.accepted,
        outcome.rejected,
        if outcome.uncovered > 0 {
            format!(" ({} not yet checkpointed)", outcome.uncovered)
        } else {
            String::new()
        }
    );
    if outcome.digests > 0 {
        println!(
            "digests : {} transitions chained; every dynamic audit verified against the digest \
             current at its chain position",
            outcome.digests
        );
    }
    if outcome.positions > 0 {
        println!(
            "position: {} aggregate estimates re-derived byte-identically from their recorded \
             vantage ranges",
            outcome.positions
        );
    }
    if outcome.macs_checked > 0 {
        println!(
            "macs    : {} segment MACs re-derived from --master",
            outcome.macs_checked
        );
    } else {
        println!("macs    : recorded bits trusted (pass --master to re-derive)");
    }
    Ok(())
}

fn cmd_ledger_inspect(args: &[String]) -> CliResult {
    use geoproof::ledger::{Entry, Ledger};
    let path = positional(args, 0)?;
    let ledger = Ledger::read(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: v{}, checkpoint interval {}, tpa key {}",
        ledger.header().version,
        ledger.header().interval,
        hex(&ledger.header().tpa_key)
    );
    let mut sealed = 0u64;
    for record in ledger.records() {
        match &record.entry {
            Entry::Evidence(e) => {
                let report = e
                    .report()
                    .map_err(|err| format!("record {}: {err}", record.index))?;
                println!(
                    "  [{:>4}] evidence #{sealed}: prover {:?} epoch {} file {:?} k={} \
                     max Δt' {:.3} ms → {}",
                    record.index,
                    e.prover,
                    e.epoch,
                    e.request.file_id,
                    e.request.k,
                    report.max_rtt.as_millis_f64(),
                    if report.accepted() {
                        "ACCEPT".to_owned()
                    } else {
                        format!("REJECT ({} violations)", report.violations.len())
                    }
                );
                sealed += 1;
            }
            Entry::DynEvidence(e) => {
                let report = e
                    .report()
                    .map_err(|err| format!("record {}: {err}", record.index))?;
                println!(
                    "  [{:>4}] dynamic evidence #{sealed}: prover {:?} epoch {} file {:?} k={} \
                     digest {}…/{} max Δt' {:.3} ms → {}",
                    record.index,
                    e.prover,
                    e.epoch,
                    e.request.file_id,
                    e.request.k,
                    hex(&e.request.digest.root[..4]),
                    e.request.digest.segments,
                    report.max_rtt.as_millis_f64(),
                    if report.accepted() {
                        "ACCEPT".to_owned()
                    } else {
                        format!("REJECT ({} violations)", report.violations.len())
                    }
                );
                sealed += 1;
            }
            Entry::Digest(d) => {
                println!(
                    "  [{:>4}] digest #{sealed}: {:?} {:?} index {} — {}…/{} → {}…/{}",
                    record.index,
                    d.op,
                    d.file_id,
                    d.index,
                    hex(&d.prev.root[..4]),
                    d.prev.segments,
                    hex(&d.new.root[..4]),
                    d.new.segments,
                );
                sealed += 1;
            }
            Entry::Position(p) => {
                let what = match &p.estimate {
                    Some(e) => format!(
                        "estimate ({:+.3}, {:+.3}), {:.1} km from SLA, rms {:.1} km, {}/{} \
                         inliers → {}",
                        e.position.lat,
                        e.position.lon,
                        e.discrepancy.0,
                        e.rms_inlier_residual.0,
                        e.inliers.iter().filter(|&&i| i).count(),
                        p.vantages.len(),
                        if e.consistent {
                            "CONSISTENT"
                        } else {
                            "INCONSISTENT"
                        }
                    ),
                    None => "no estimate (degenerate geometry)".to_owned(),
                };
                println!(
                    "  [{:>4}] position #{sealed}: prover {:?} first epoch {} — {} vantages, {what}",
                    record.index,
                    p.prover,
                    p.first_epoch,
                    p.vantages.len(),
                );
                sealed += 1;
            }
            Entry::Checkpoint(c) => println!(
                "  [{:>4}] checkpoint: covers {} sealed records, root {}…",
                record.index,
                c.covered,
                hex(&c.root[..8])
            ),
        }
    }
    println!("head: {}", hex(&ledger.head()));
    Ok(())
}

fn cmd_ledger_rotate(args: &[String]) -> CliResult {
    let path = positional(args, 0)?;
    let master = flag(args, "--master")
        .ok_or("--master required (rotation seals the segment under a TPA-signed checkpoint)")?;
    let tpa = tpa_ledger_key(&master);
    let outcome = geoproof::ledger::rotate(Path::new(path), &tpa, fresh_seed_u64("ledger-rotate"))
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: segment {} sealed ({} records) → {}; live file continues as segment {}",
        outcome.segment,
        outcome.sealed_leaves,
        outcome.sealed_segment.display(),
        outcome.next_segment
    );
    Ok(())
}

fn cmd_ledger_compact(args: &[String]) -> CliResult {
    use geoproof::ledger::SegmentSource;
    let path = positional(args, 0)?;
    let sources =
        geoproof::ledger::discover(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let mut done = 0usize;
    for source in sources {
        let SegmentSource::Full(seg) = source else {
            continue;
        };
        let outcome =
            geoproof::ledger::compact(&seg).map_err(|e| format!("{}: {e}", seg.display()))?;
        println!(
            "{}: {} sealed leaves → summary {} (bodies archived as {})",
            seg.display(),
            outcome.leaves,
            outcome.summary.display(),
            outcome.archive.display()
        );
        done += 1;
    }
    if done == 0 {
        println!("{path}: no uncompacted sealed segments (run `ledger rotate` first)");
    }
    Ok(())
}

fn cmd_ledger_prove(args: &[String]) -> CliResult {
    use geoproof::ledger::Ledger;
    let path = positional(args, 0)?;
    let round: u64 = flag(args, "--round")
        .ok_or("--round required")?
        .parse()
        .map_err(|e| format!("bad --round: {e}"))?;
    let ledger = Ledger::read(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    // `--round` is the global sealed ordinal: rotated and compacted
    // segments are searched too (a compacted segment needs its archive
    // for the record body).
    let proof = geoproof::ledger::prove_global(Path::new(path), round)
        .map_err(|e| format!("{path}: {e}"))?;

    // Self-check against the embedded key before handing the proof out.
    let tpa = geoproof::crypto::schnorr::VerifyingKey::from_bytes(&ledger.header().tpa_key)
        .ok_or("ledger's embedded TPA key is not a valid curve point")?;
    let verified = proof
        .verify(&tpa)
        .map_err(|e| format!("freshly built proof failed self-check: {e}"))?;

    let out = flag(args, "--out").unwrap_or_else(|| format!("{path}.round-{round}.proof"));
    let encoded = proof.encode();
    std::fs::write(&out, &encoded).map_err(|e| format!("write {out}: {e}"))?;
    let what = match &verified.entry {
        geoproof::ledger::Entry::Evidence(e) => {
            format!("audit evidence (prover {:?}, epoch {})", e.prover, e.epoch)
        }
        geoproof::ledger::Entry::DynEvidence(e) => format!(
            "dynamic audit evidence (prover {:?}, epoch {})",
            e.prover, e.epoch
        ),
        geoproof::ledger::Entry::Digest(d) => format!(
            "digest transition ({:?} of {:?} → {} segments)",
            d.op, d.file_id, d.new.segments
        ),
        geoproof::ledger::Entry::Position(p) => format!(
            "position estimate (prover {:?}, {} vantages)",
            p.prover,
            p.vantages.len()
        ),
        geoproof::ledger::Entry::Checkpoint(_) => unreachable!("checkpoints are not leaves"),
    };
    println!(
        "proof of record #{round} — {what}: {} bytes, {} Merkle siblings, \
         checkpoint covers {} → {out}",
        encoded.len(),
        proof.siblings.len(),
        proof.covered
    );
    println!("verifies against TPA key {}", hex(&ledger.header().tpa_key));
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let store = positional(args, 0)?;
    let (segments, md) = read_store(Path::new(store))?;
    println!("file_id        : {}", md.file_id);
    println!("original bytes : {}", md.original_len);
    println!("raw blocks     : {}", md.raw_blocks);
    println!("encoded blocks : {}", md.encoded_blocks);
    println!("segments       : {}", md.segments);
    let stored: usize = segments.iter().map(Bytes::len).sum();
    println!(
        "stored bytes   : {stored} (+{:.1}%)",
        (stored as f64 / md.original_len.max(1) as f64 - 1.0) * 100.0
    );
    Ok(())
}
