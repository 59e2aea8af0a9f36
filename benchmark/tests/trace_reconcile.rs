//! The traced run reconciles: spans nest, ids are unique, the spans
//! account for the audit, and the benchmark's copy of the audit loop is
//! judged exactly as the product's own.

use geoproof_benchmark::json::Json;
use geoproof_benchmark::layers::run_traced;
use geoproof_benchmark::rig::{input_bytes, out_dir, Rig};
use geoproof_benchmark::workload;
use std::collections::BTreeMap;

struct Row {
    name: String,
    parent: String,
    start: f64,
    end: f64,
}

#[test]
fn smoke_trace_of_steady_k20_reconciles() {
    let spec = workload::find("steady_k20").expect("workload exists");
    // What `run --workload steady_k20 --smoke --trace 1` runs.
    let outcome = run_traced(spec, 7, workload::SMOKE_SECONDS);
    assert!(outcome.correct, "gates failed: {:?}", outcome.notes);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
    let residual = outcome
        .metrics
        .get("trace.residual_frac")
        .expect("metric present");
    assert!(
        residual <= 0.10,
        "spans leave {residual} of the audit unexplained"
    );

    // The trace file, read back as a stranger would read it.
    let text = std::fs::read_to_string(out_dir().join("trace-steady_k20.json")).expect("trace");
    let doc = Json::parse(&text).expect("trace is JSON");
    let Some(Json::Arr(spans)) = doc.get("spans") else {
        panic!("no spans array");
    };
    let mut by_audit: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for s in spans {
        let field = |k: &str| {
            s.get(k)
                .and_then(Json::as_str)
                .expect("string field")
                .to_owned()
        };
        let num = |k: &str| s.get(k).and_then(Json::as_f64).expect("number field");
        by_audit.entry(field("audit")).or_default().push(Row {
            name: field("name"),
            parent: field("parent"),
            start: num("start_ns"),
            end: num("end_ns"),
        });
    }
    assert!(
        by_audit.len() >= 100,
        "only {} audits traced",
        by_audit.len()
    );
    let mut residuals = Vec::new();
    for (id, rows) in &by_audit {
        // One audit span per id: ids are unique.
        let roots: Vec<&Row> = rows.iter().filter(|r| r.name == "audit").collect();
        assert_eq!(roots.len(), 1, "audit {id}");
        let root = roots[0];
        assert_eq!(rows.iter().filter(|r| r.name == "run_audit").count(), 1);
        assert_eq!(
            rows.iter().filter(|r| r.name == "round").count(),
            spec.k as usize
        );
        let mut inside = 0.0;
        for r in rows.iter().filter(|r| r.name != "audit") {
            let parent = rows
                .iter()
                .find(|p| p.name == r.parent)
                .unwrap_or_else(|| panic!("audit {id}: {} has no parent {}", r.name, r.parent));
            assert!(
                r.start >= parent.start && r.end <= parent.end && r.start <= r.end,
                "audit {id}: {} [{}, {}] is not inside {} [{}, {}]",
                r.name,
                r.start,
                r.end,
                parent.name,
                parent.start,
                parent.end
            );
            if r.parent == "audit" {
                inside += r.end - r.start;
            }
        }
        residuals.push(1.0 - inside / (root.end - root.start));
    }
    residuals.sort_by(f64::total_cmp);
    let p50 = residuals[residuals.len() / 2];
    assert!(p50 <= 0.10, "residual at p50 is {p50}");
}

#[test]
fn local_audit_loop_is_judged_as_the_products_is() {
    let spec = workload::find("steady_k20").expect("workload exists");
    let seed = 11;
    let rig = Rig::build(spec, seed, &input_bytes(seed, 1), "test");
    let mut ctx = rig.audit_ctx(0);
    let addr = rig.server.addr();

    let request = ctx.auditor.issue_request(spec.k);
    let product = ctx
        .verifier
        .run_audit(&request, addr)
        .expect("product loop");
    let theirs = ctx.auditor.verify(&request, &product);

    let request = ctx.auditor.issue_request(spec.k);
    let local = ctx
        .local
        .run_audit(&request, addr, None, None)
        .expect("local loop");
    let ours = ctx.auditor.verify(&request, &local);

    assert!(theirs.accepted(), "{:?}", theirs.violations);
    assert_eq!(ours.violations, theirs.violations);
    assert_eq!(ours.segments_ok, theirs.segments_ok);
    assert_eq!(local.rounds.len(), product.rounds.len());
    // Same canonical form: both parse back from their own bytes.
    for t in [&product, &local] {
        let bytes = t.canonical_bytes();
        let back = geoproof::core::messages::SignedTranscript::from_canonical(&bytes);
        assert_eq!(back.as_ref(), Ok(t));
    }
    Rig::teardown(rig);
}
