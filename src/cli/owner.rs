//! The data owner's commands: `encode`, `extract`, `info`, and the
//! dynamic flow's `encode-dynamic`, `update` and `append`.

use super::args::Args;
use super::store::{
    dyn_owner, read_dyn_store, read_input, read_store, write_dyn_store, write_store,
    DYN_SEGMENT_BYTES,
};
use super::{
    fresh_seed, fresh_seed_u64, hex, open_ledger, owner_update_key, parse_addr, CliResult,
};
use bytes::Bytes;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::ledger::{DigestOp, DigestRecord, NO_DIGEST};
use geoproof::por::dynamic::{owner_authorization, tag_segment};
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::por::stream::default_encode_threads;
use std::io::Read;
use std::path::Path;

/// Chunk size for streaming encode reads.
const ENCODE_CHUNK: usize = 256 * 1024;

pub fn encode(raw: &[String]) -> CliResult {
    let args = Args::parse(
        raw,
        "<input-file> <store-dir>",
        "--fid --master --threads",
        "",
    )?;
    let (input, store) = (args.pos(0), args.pos(1));
    let fid: String = args.need("--fid")?;
    let master: String = args.need("--master")?;
    // Worker threads for each encode dispatch: --threads, else the
    // GEOPROOF_ENCODE_THREADS env var, else the machine's parallelism.
    // Output bytes are identical at every count.
    let threads = args.get("--threads", default_encode_threads())?;
    if threads == 0 {
        return Err("--threads must be a positive integer".into());
    }
    let encoder = PorEncoder::new(PorParams::paper());
    let keys = PorKeys::derive(master.as_bytes(), &fid);

    // The block permutation spans the whole encoded file, so the total
    // length must be known up front: regular files report it from
    // metadata; stdin (`-`) and non-regular inputs (FIFOs, /proc files —
    // their stat length is 0 or meaningless) are spooled first. Either
    // way the bytes then stream through in ENCODE_CHUNK pieces.
    let stat = match input {
        "-" => None,
        path => Some(std::fs::metadata(path).map_err(|e| format!("stat {path}: {e}"))?),
    };
    let (total, mut reader): (u64, Box<dyn Read>) = match stat.filter(|s| s.is_file()) {
        Some(stat) => {
            let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
            (stat.len(), Box::new(file))
        }
        None => {
            let data = read_input(input)?;
            (data.len() as u64, Box::new(std::io::Cursor::new(data)))
        }
    };
    // Each ENCODE_CHUNK read becomes one dispatch of its whole RS chunks.
    let mut stream = encoder.begin_encode_threads(&keys, &fid, total, threads);
    let mut buf = vec![0u8; ENCODE_CHUNK];
    // The layout was sized up front; clamp to it so a file that grows
    // mid-encode yields exactly the declared prefix, and a file that
    // shrinks is a clean error rather than a panic.
    let mut fed = 0u64;
    while fed < total {
        let want = buf.len().min((total - fed) as usize);
        let n = reader
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
    drop(reader);
    let arena = stream.finish();
    write_store(Path::new(store), &arena)?;
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

pub fn extract(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<store-dir> <output-file>", "--master", "")?;
    let output = args.pos(1);
    let master: String = args.need("--master")?;
    let (segments, md) = read_store(Path::new(args.pos(0)))?;
    let keys = PorKeys::derive(master.as_bytes(), &md.file_id);
    let data = PorEncoder::new(PorParams::paper())
        .extract(&segments, &keys, &md)
        .map_err(|e| format!("extract: {e}"))?;
    std::fs::write(output, &data).map_err(|e| format!("write {output}: {e}"))?;
    println!("extracted {} bytes to {output}", data.len());
    Ok(())
}

pub fn info(raw: &[String]) -> CliResult {
    let args = Args::parse(raw, "<store-dir>", "", "")?;
    let (segments, md) = read_store(Path::new(args.pos(0)))?;
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

pub fn encode_dynamic(raw: &[String]) -> CliResult {
    let values = "--fid --master --segment-bytes --ledger";
    let args = Args::parse(raw, "<input-file> <store-dir>", values, "")?;
    let store = args.pos(1);
    let fid: String = args.need("--fid")?;
    let master: String = args.need("--master")?;
    let segment_bytes = args.get("--segment-bytes", DYN_SEGMENT_BYTES)?;
    if segment_bytes == 0 {
        return Err("--segment-bytes must be positive".into());
    }
    let data = read_input(args.pos(0))?;
    let keys = PorKeys::derive(master.as_bytes(), &fid);
    // An empty input still yields one (empty-bodied) segment: a dynamic
    // file always has at least one leaf to commit to.
    let mut bodies: Vec<&[u8]> = data.chunks(segment_bytes).collect();
    if bodies.is_empty() {
        bodies.push(&[]);
    }
    let tagged: Vec<Bytes> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| Bytes::from(tag_segment(&keys, &fid, i as u64, b)))
        .collect();
    let owner_pub = owner_update_key(&master, &fid).verifying_key().to_bytes();
    let digest = write_dyn_store(
        Path::new(store),
        &fid,
        &tagged,
        segment_bytes as u64,
        &owner_pub,
    )?;
    println!(
        "encoded {} bytes -> {} dynamic segments ({} bytes each) in {store}; digest root {}",
        data.len(),
        tagged.len(),
        segment_bytes,
        hex(&digest.root[..8]),
    );
    let record = DigestRecord {
        file_id: fid,
        op: DigestOp::Init,
        index: 0,
        prev: NO_DIGEST,
        new: digest,
    };
    append_digest_record(&args, &master, &record)
}

/// `update` (`is_update`) or `append`: the owner tags the new segment,
/// ships it with its authorisation, and persists the mirror only once
/// the server lands on the digest the owner derived.
pub fn update_or_append(raw: &[String], is_update: bool) -> CliResult {
    let index_flag = if is_update { "--index" } else { "" };
    let values = format!("--master --data --ledger {index_flag}");
    let args = Args::parse(raw, "<host:port> <store-dir>", &values, "")?;
    let addr = parse_addr(args.pos(0))?;
    let store = Path::new(args.pos(1));
    let master: String = args.need("--master")?;
    let body = read_input(&args.need::<String>("--data")?)?;
    let (mut tagged, meta) = read_dyn_store(store)?;
    let mut owner = dyn_owner(&tagged, &meta)?;
    let keys = PorKeys::derive(master.as_bytes(), &meta.file_id);
    let prev = owner.digest();

    // The owner tags and derives the expected digest first — the
    // provider's ack is *checked against* it, never adopted.
    let (new_tagged, expected, index, op) = if is_update {
        let index: u64 = args.need("--index")?;
        let (t, d) = owner
            .tag_update(index, &body, &keys)
            .map_err(|e| format!("update: {e}"))?;
        (t, d, index, DigestOp::Update)
    } else {
        let (t, d) = owner.tag_append(&body, &keys);
        (t, d, prev.segments, DigestOp::Append)
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
    let authorization = owner_authorization(&meta.file_id, !is_update, index, &new_tagged);
    let sig = signing.sign(&authorization, &mut sig_rng).to_bytes();
    let mut client = geoproof::wire::tcp::TcpChallenger::connect(addr)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let ack = if is_update {
        client.update(&meta.file_id, index, new_tagged.clone(), sig)
    } else {
        client.append(&meta.file_id, new_tagged.clone(), sig)
    }
    .map_err(|e| format!("wire: {e}"))?;
    let _ = client.bye();
    let verb = if is_update { "update" } else { "append" };
    let theirs = ack
        .ok_or_else(|| format!("server refused the {verb}: unknown file or index out of range"))?;
    if theirs != expected {
        return Err(format!(
            "server state diverged: its digest root {} ({} segments) != expected {} ({} \
             segments) — its store is stale or corrupt",
            hex(&theirs.root[..8]),
            theirs.segments,
            hex(&expected.root[..8]),
            expected.segments,
        ));
    }

    // Server landed on the owner's digest: persist the mirror.
    if is_update {
        tagged[index as usize] = new_tagged;
    } else {
        tagged.push(new_tagged);
    }
    write_dyn_store(
        store,
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
    let record = DigestRecord {
        file_id: meta.file_id,
        op,
        index,
        prev,
        new: expected,
    };
    append_digest_record(&args, &master, &record)
}

/// With `--ledger`, chains one digest transition into the evidence
/// ledger.
fn append_digest_record(args: &Args, master: &str, record: &DigestRecord) -> CliResult {
    let Some(path) = args.str("--ledger") else {
        return Ok(());
    };
    let mut writer = open_ledger(path, master, fresh_seed_u64("digest-record"))?;
    writer
        .append_digest(record)
        .and_then(|()| writer.finish())
        .map_err(|e| format!("ledger {path}: {e}"))?;
    println!(
        "evidence: digest transition chained to {path} ({:?} {:?} → {} segments, root {})",
        record.op,
        record.file_id,
        record.new.segments,
        hex(&record.new.root[..8]),
    );
    Ok(())
}
