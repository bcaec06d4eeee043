//! Tier-1 coverage for the lint gate itself.
//!
//! Three layers: every rule must fire on its known-bad fixture snippet
//! (linted under a virtual path so path-sensitive rules engage), the
//! real tree must be clean end-to-end, and the `parking_lot` shim's
//! runtime lock-order checker must panic on a seeded ABBA inversion.

use bingo_lint::{lint_files, lint_workspace, parse_metric_names, FileInput, LintConfig};
use std::path::Path;

fn repo_root() -> &'static Path {
    // The root package's manifest dir is the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Lint one fixture file as if it lived at `virtual_path`.
fn lint_fixture(name: &str, virtual_path: &str, cfg: &LintConfig) -> Vec<bingo_lint::Finding> {
    let disk = repo_root().join("crates/bingo-lint/fixtures").join(name);
    let source = std::fs::read_to_string(&disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", disk.display()));
    lint_files(
        &[FileInput {
            path: virtual_path.to_string(),
            source,
        }],
        cfg,
    )
}

fn rule_lines(findings: &[bingo_lint::Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn atomics_fixture_fires_only_on_unjustified_relaxed() {
    let findings = lint_fixture(
        "bad_atomics.rs",
        "crates/bingo-core/src/fixture.rs",
        &LintConfig::default(),
    );
    // The bare Relaxed fires; the `// relaxed-ok:` one does not.
    assert_eq!(rule_lines(&findings, "atomics-ordering"), vec![7]);
}

#[test]
fn atomics_fixture_is_exempt_inside_telemetry() {
    let findings = lint_fixture(
        "bad_atomics.rs",
        "crates/bingo-telemetry/src/fixture.rs",
        &LintConfig::default(),
    );
    assert!(rule_lines(&findings, "atomics-ordering").is_empty());
}

#[test]
fn determinism_fixture_fires_on_clock_entropy_and_iteration() {
    let findings = lint_fixture(
        "bad_determinism.rs",
        "crates/bingo-walks/src/fixture.rs",
        &LintConfig::default(),
    );
    let lines = rule_lines(&findings, "determinism");
    assert_eq!(lines.len(), 3, "clock + entropy + iteration: {findings:?}");
    // The order-insensitive `.values().sum()` fold must NOT be flagged.
    let source =
        std::fs::read_to_string(repo_root().join("crates/bingo-lint/fixtures/bad_determinism.rs"))
            .expect("fixture readable");
    let sum_line = source
        .lines()
        .position(|l| l.contains(".values().sum()"))
        .expect("fold present") as u32
        + 1;
    assert!(!lines.contains(&sum_line));
}

#[test]
fn lock_fixture_fires_on_cycle_and_blocking_hold() {
    let findings = lint_fixture(
        "bad_locks.rs",
        "crates/bingo-service/src/fixture.rs",
        &LintConfig::default(),
    );
    let locks: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "lock-discipline")
        .collect();
    let cycles = locks.iter().filter(|f| f.message.contains("cycle")).count();
    let blocking = locks
        .iter()
        .filter(|f| f.message.contains("blocking"))
        .count();
    assert_eq!(
        cycles, 2,
        "one report per direction of the ABBA pair: {locks:?}"
    );
    assert_eq!(blocking, 1, "recv under the inbox lock: {locks:?}");
}

#[test]
fn metrics_fixture_fires_on_unknown_name_and_accepts_known() {
    let names_src =
        std::fs::read_to_string(repo_root().join("crates/bingo-telemetry/src/names.rs"))
            .expect("names.rs readable");
    let cfg = LintConfig {
        metric_names: parse_metric_names(&names_src),
        ..Default::default()
    };
    let findings = lint_fixture(
        "bad_metrics.rs",
        "crates/bingo-gateway/src/fixture.rs",
        &cfg,
    );
    assert_eq!(rule_lines(&findings, "metric-names").len(), 1);

    let good = lint_files(
        &[FileInput {
            path: "crates/bingo-gateway/src/fixture.rs".to_string(),
            source: "pub fn f(r: &Registry) { r.counter(\"service.shard.steps\").incr(1); }\n"
                .to_string(),
        }],
        &cfg,
    );
    assert!(rule_lines(&good, "metric-names").is_empty(), "{good:?}");
}

#[test]
fn hygiene_fixture_fires_on_unwrap_and_println_not_expect() {
    let findings = lint_fixture(
        "bad_hygiene.rs",
        "crates/bingo-service/src/fixture.rs",
        &LintConfig::default(),
    );
    assert_eq!(rule_lines(&findings, "panic-hygiene"), vec![6, 7]);

    // The same code outside the serving layers is not hygiene-checked.
    let elsewhere = lint_fixture(
        "bad_hygiene.rs",
        "crates/bingo-graph/src/fixture.rs",
        &LintConfig::default(),
    );
    assert!(rule_lines(&elsewhere, "panic-hygiene").is_empty());
}

#[test]
fn wire_fixture_fires_on_endianness_width_and_ordering() {
    let findings = lint_fixture(
        "bad_wire.rs",
        "crates/bingo-walks/src/wire/fixture.rs",
        &LintConfig::default(),
    );
    let lines = rule_lines(&findings, "wire-format");
    // HashMap import + HashMap field + `.len().to_le_bytes()` +
    // `to_be_bytes` + `usize::from_le_bytes`; the `lint:allow`-escaped
    // big-endian decode stays quiet.
    assert_eq!(lines, vec![4, 7, 11, 13, 18], "{findings:?}");
}

#[test]
fn wire_fixture_is_exempt_outside_wire_paths() {
    let findings = lint_fixture(
        "bad_wire.rs",
        "crates/bingo-walks/src/model.rs",
        &LintConfig::default(),
    );
    assert!(rule_lines(&findings, "wire-format").is_empty());
}

#[test]
fn baseline_suppresses_by_rule_and_path_prefix() {
    let cfg = LintConfig {
        allow: vec![(
            "atomics-ordering".to_string(),
            "crates/bingo-core/".to_string(),
        )],
        ..Default::default()
    };
    let findings = lint_fixture("bad_atomics.rs", "crates/bingo-core/src/fixture.rs", &cfg);
    assert!(rule_lines(&findings, "atomics-ordering").is_empty());
}

#[test]
fn real_tree_is_clean() {
    let findings = lint_workspace(repo_root(), None).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "the tree must lint clean; run `cargo run -p bingo-lint -- --workspace`:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn runtime_lock_order_checker_panics_on_seeded_inversion() {
    parking_lot::force_enable_lock_check();
    let a = parking_lot::Mutex::new_named(0u32, "linttest.inv_a");
    let b = parking_lot::Mutex::new_named(0u32, "linttest.inv_b");
    // Establish the order a -> b.
    {
        let ga = a.lock();
        let _gb = b.lock();
        drop(_gb);
        drop(ga);
    }
    // Now acquire in the opposite order: the checker must panic at the
    // second acquisition, before blocking.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    }));
    let err = result.expect_err("ABBA inversion must panic under BINGO_LOCK_CHECK");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("lock-order inversion"),
        "unexpected panic payload: {msg}"
    );
}

#[test]
fn runtime_checker_accepts_consistent_order() {
    parking_lot::force_enable_lock_check();
    let a = parking_lot::Mutex::new_named(0u32, "linttest.ok_a");
    let b = parking_lot::Mutex::new_named(0u32, "linttest.ok_b");
    for _ in 0..3 {
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
    }
}

/// The `service.*` locks `bingo-service`'s crate docs list, each with the
/// one file that may construct and acquire it, and the nested orders the
/// docs allow between them.
const SERVICE_LOCKS: [(&str, &str); 6] = [
    ("service.pending", "collect.rs"),
    ("service.progress", "service.rs"),
    ("service.router", "router.rs"),
    ("service.shard_ctx_cache", "forward.rs"),
    ("service.shard_engine", "shard.rs"),
    ("service.shard_inbox", "shard.rs"),
];
const SERVICE_LOCK_ORDERS: [(&str, &str); 2] = [
    ("service.router", "service.shard_inbox"),
    ("service.shard_engine", "service.shard_ctx_cache"),
];

#[test]
fn service_lock_census_matches_the_documented_list_and_orders() {
    use bingo::prelude::*;
    use bingo::service::TransportMode;
    use bingo_lint::lexer::{lex, TokKind};
    use bingo_lint::rules::locks;
    use std::collections::{BTreeMap, BTreeSet};

    // Static half, token by token: where each `new_named` literal is
    // constructed, which field holds it, and where that field is acquired.
    let files: Vec<FileInput> = bingo_lint::workspace_files(repo_root())
        .expect("workspace walk")
        .into_iter()
        .filter(|f| f.path.starts_with("crates/bingo-service/src/"))
        .collect();
    let file_name = |path: &str| path.rsplit('/').next().unwrap_or(path).to_string();
    let mut constructed = Vec::new();
    let mut name_of_field = BTreeMap::new();
    let mut acquired = BTreeSet::new();
    let mut naming_collector = BTreeSet::new();
    let mut static_edges = Vec::new();
    for file in &files {
        let lexed = lex(&file.source);
        let toks = &lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || lexed.is_test_line(t.line) {
                continue;
            }
            if t.text == "collector" {
                naming_collector.insert(file_name(&file.path));
            }
            // `field: Mutex::new_named(value, "service.x")`
            if t.text == "new_named" && i >= 5 && toks[i - 4].text == ":" {
                let name = toks[i..]
                    .iter()
                    .find(|t| t.kind == TokKind::Str)
                    .expect("new_named takes a name literal");
                constructed.push((name.text.clone(), file_name(&file.path)));
                name_of_field.insert(toks[i - 5].text.clone(), name.text.clone());
            }
            // `.field.lock()` / `.try_lock()` / `.read()` / `.write()`
            if ["lock", "try_lock", "read", "write"].contains(&t.text.as_str())
                && i >= 2
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|t| t.text == "(")
                && toks.get(i + 2).is_some_and(|t| t.text == ")")
            {
                acquired.insert((toks[i - 2].text.clone(), file_name(&file.path)));
            }
        }
        static_edges.extend(locks::collect(&file.path, &lexed).0);
    }
    constructed.sort();
    let documented: Vec<(String, String)> = SERVICE_LOCKS
        .iter()
        .map(|&(name, file)| (name.to_string(), file.to_string()))
        .collect();
    assert_eq!(
        constructed, documented,
        "each documented lock is constructed once, in its own file, and no other is"
    );
    for (field, name) in &name_of_field {
        let home = &documented
            .iter()
            .find(|(n, _)| n == name)
            .expect("listed")
            .1;
        let sites: Vec<&String> = acquired
            .iter()
            .filter(|(f, _)| f == field)
            .map(|(_, file)| file)
            .collect();
        assert_eq!(
            sites,
            [home],
            "`{name}` (field `{field}`) is acquired in {home} only"
        );
    }
    // `service.pending` is only reachable through the collector: the
    // service opens tickets, a shard files finished walks, and waiters
    // collect them. A forward rebuilds its walker from the bytes alone,
    // so `forward.rs` never reaches the ticket table.
    assert_eq!(
        naming_collector,
        BTreeSet::from(["collect.rs", "service.rs", "shard.rs"].map(String::from)),
        "files that reach the ticket table"
    );
    // The per-function pass sees an order only when both acquisitions sit
    // in one function; whatever it does see must be a documented order.
    for edge in &static_edges {
        let name = |qualified: &str| {
            let field = qualified.rsplit('.').next().unwrap_or(qualified);
            name_of_field.get(field).cloned().unwrap_or_default()
        };
        let (from, to) = (name(&edge.from), name(&edge.to));
        assert!(
            SERVICE_LOCK_ORDERS.contains(&(from.as_str(), to.as_str())),
            "undocumented order {from} -> {to} at {}:{}",
            edge.file,
            edge.line
        );
    }

    // Runtime half: the orders a run actually takes — across functions and
    // files, which the static pass cannot follow — are exactly the
    // documented two. Serialized node2vec over a structural update
    // drives every nested acquisition the service has. The `sync` below
    // parks on `service.progress` before the first wave is waited on, so
    // its walkers are still queued or in flight.
    parking_lot::force_enable_lock_check();
    let mut graph = DynamicGraph::new(24);
    for v in 0..24u32 {
        graph
            .insert_edge(v, (v + 1) % 24, Bias::from_int(2))
            .unwrap();
        graph
            .insert_edge(v, (v + 2) % 24, Bias::from_int(1))
            .unwrap();
    }
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let node2vec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 10,
        p: 0.5,
        q: 2.0,
    });
    let first = service.submit_all_vertices(node2vec).unwrap();
    service.sync(service.ingest(&UpdateBatch::new(vec![UpdateEvent::Insert {
        src: 0,
        dst: 7,
        bias: Bias::from_int(1),
    }])));
    service.wait(first);
    service.wait(service.submit_all_vertices(node2vec).unwrap());
    service.shutdown();
    let observed: BTreeSet<(&str, &str)> = parking_lot::observed_order()
        .into_iter()
        .filter(|(from, to)| from.starts_with("service.") && to.starts_with("service."))
        .collect();
    assert_eq!(observed, BTreeSet::from(SERVICE_LOCK_ORDERS));
}

#[test]
fn no_lock_under_a_service_or_gateway_lock_reaches_telemetry() {
    use bingo::gateway::{Gateway, GatewayConfig};
    use bingo::prelude::*;
    use bingo::telemetry::{Telemetry, TraceStage};
    use std::sync::Arc;

    // Detailed telemetry records spans under the service's and the
    // gateway's locks (a step batch under the engine guard, a collect
    // under the ticket table, a dispatch under the gateway state): none of
    // them may take a telemetry lock there.
    parking_lot::force_enable_lock_check();
    let mut graph = DynamicGraph::new(64);
    for v in 0..64u32 {
        graph
            .insert_edge(v, (v + 1) % 64, Bias::from_int(2))
            .unwrap();
        graph
            .insert_edge(v, (v + 7) % 64, Bias::from_int(1))
            .unwrap();
    }
    let telemetry = Telemetry::enabled(0x10C4);
    let config = ServiceConfig {
        num_shards: 4,
        ..ServiceConfig::default()
    };
    let service = WalkService::build_with_telemetry(&graph, config, telemetry.clone()).unwrap();
    let gateway = Gateway::new(Arc::new(service), GatewayConfig::default());
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 12 });
    let tickets: Vec<_> = (0..4)
        .map(|round| {
            let starts: Vec<VertexId> = (0..256).map(|k| (k + round) % 64).collect();
            let request = WalkRequest::spec(spec).starts(starts).tenant("lint");
            gateway.submit(request).unwrap()
        })
        .collect();
    for ticket in tickets {
        gateway.wait(ticket).unwrap();
    }
    gateway.shutdown();
    // The run must have recorded both kinds of span, or the census below
    // would pass without looking at them.
    let events = telemetry.tracer().expect("tracing on").events();
    let has = |f: fn(&TraceStage) -> bool| events.iter().any(|e| f(&e.stage));
    assert!(has(|s| matches!(s, TraceStage::GatewayDispatch { .. })));
    assert!(has(|s| matches!(s, TraceStage::Collect { .. })));
    let into_telemetry: Vec<(&str, &str)> = parking_lot::observed_order()
        .into_iter()
        .filter(|(from, to)| {
            (from.starts_with("service.") || from.starts_with("gateway."))
                && to.starts_with("telemetry.")
        })
        .collect();
    assert!(
        into_telemetry.is_empty(),
        "telemetry locks taken under serving locks: {into_telemetry:?}"
    );
    // Gateway and service locks never nest, in either direction: the
    // dispatcher calls the service with `gateway.state` released, and a
    // completion notifier runs with no service lock held.
    let across: Vec<(&str, &str)> = parking_lot::observed_order()
        .into_iter()
        .filter(|(from, to)| {
            let (g, s) = ("gateway.", "service.");
            (from.starts_with(g) && to.starts_with(s)) || (from.starts_with(s) && to.starts_with(g))
        })
        .collect();
    assert!(
        across.is_empty(),
        "gateway and service locks nested: {across:?}"
    );
}

/// The metric taxonomy's size: one constant per series in
/// `crates/bingo-telemetry/src/names.rs`, none of which restates another.
const METRIC_NAMES: usize = 52;

#[test]
fn metric_name_census_every_name_is_registered_by_non_test_code() {
    use bingo::prelude::*;
    use bingo_lint::lexer::{lex, TokKind};
    use std::collections::BTreeSet;
    use std::io::{Read, Write};
    use std::sync::Arc;

    // Static half, token by token: the `pub const`s of the taxonomy, and
    // the ones non-test code under crates/ or shims/ names as
    // `names::CONST` — the converse of the `metric-names` rule, which
    // only checks that a literal is in the taxonomy.
    let names_path = "crates/bingo-telemetry/src/names.rs";
    let names_src = std::fs::read_to_string(repo_root().join(names_path)).expect("names.rs");
    let lexed = lex(&names_src);
    let consts: BTreeSet<String> = lexed
        .tokens
        .windows(3)
        .filter(|w| w[0].text == "pub" && w[1].text == "const")
        .map(|w| w[2].text.clone())
        .collect();
    assert_eq!(consts.len(), METRIC_NAMES, "names.rs constants: {consts:?}");
    let taxonomy = parse_metric_names(&names_src);
    assert_eq!(
        taxonomy.len(),
        METRIC_NAMES,
        "one distinct name per constant"
    );
    let mut named = BTreeSet::new();
    for file in bingo_lint::workspace_files(repo_root()).expect("workspace walk") {
        if !(file.path.starts_with("crates/") || file.path.starts_with("shims/"))
            || file.path == names_path
        {
            continue;
        }
        let lexed = lex(&file.source);
        for w in lexed.tokens.windows(4) {
            if w[0].text == "names"
                && w[1].text == ":"
                && w[2].text == ":"
                && w[3].kind == TokKind::Ident
                && !lexed.is_test_line(w[3].line)
            {
                named.insert(w[3].text.clone());
            }
        }
    }
    let unnamed: Vec<&String> = consts.difference(&named).collect();
    assert!(unnamed.is_empty(), "no non-test code names {unnamed:?}");

    // Runtime half: one pass through every layer — a detailed service
    // behind a gateway, then one scrape of the obs plane — registers
    // exactly the taxonomy, no more and no fewer.
    let telemetry = Telemetry::enabled(0xCE45);
    let mut graph = DynamicGraph::new(16);
    for v in 0..16u32 {
        graph
            .insert_edge(v, (v + 1) % 16, Bias::from_int(1))
            .unwrap();
    }
    let service = Arc::new(
        WalkService::build_with_telemetry(
            &graph,
            ServiceConfig {
                num_shards: 2,
                ..ServiceConfig::default()
            },
            telemetry.clone(),
        )
        .unwrap(),
    );
    let gateway = Arc::new(Gateway::new(Arc::clone(&service), GatewayConfig::default()));
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 });
    let ticket = gateway
        .submit(WalkRequest::spec(spec).all_vertices().tenant("census"))
        .unwrap();
    gateway.wait(ticket).unwrap();
    let server = ObsServer::serve(
        ObsConfig::default(),
        telemetry.clone(),
        Some(service),
        Some(gateway),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    stream.read_to_string(&mut String::new()).unwrap();
    server.shutdown();
    let registered: BTreeSet<String> = telemetry
        .snapshot()
        .entries
        .keys()
        .map(|key| key.name.clone())
        .collect();
    assert_eq!(registered, taxonomy);
}

/// Public fields of the four configuration structs a deployment fills in.
/// A knob exists only where a measured trade-off does; a value the paper
/// fixes, or that no workload varies, is a constant at its one point of use.
const CONFIG_KNOBS: [(&str, usize); 4] = [
    ("BingoConfig", 1),
    ("ServiceConfig", 5),
    ("GatewayConfig", 4),
    ("AimdConfig", 3),
];

#[test]
fn config_knob_census() {
    use bingo_lint::lexer::lex;
    use std::collections::BTreeMap;

    // Token by token: each `pub struct <Name> {` and the `pub <field> :`
    // up to its closing brace (no field type here has braces).
    let mut fields: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in bingo_lint::workspace_files(repo_root()).expect("workspace walk") {
        let toks = lex(&file.source).tokens;
        for (i, w) in toks.windows(4).enumerate() {
            let name = w[2].text.as_str();
            if [&w[0].text, &w[1].text, &w[3].text] != ["pub", "struct", "{"]
                || !CONFIG_KNOBS.iter().any(|&(n, _)| n == name)
            {
                continue;
            }
            let body = toks[i + 4..].iter().take_while(|t| t.text != "}");
            let body: Vec<&str> = body.map(|t| t.text.as_str()).collect();
            let found = body.windows(3).filter(|w| w[0] == "pub" && w[2] == ":");
            let found = found.map(|w| w[1].to_string()).collect();
            assert!(
                fields.insert(name.to_string(), found).is_none(),
                "`{name}` twice"
            );
        }
    }
    let counts: Vec<(&str, usize)> = fields.iter().map(|(n, f)| (n.as_str(), f.len())).collect();
    let mut expected = CONFIG_KNOBS.to_vec();
    expected.sort_unstable();
    assert_eq!(counts, expected, "public config fields: {fields:?}");
}

/// Public functions of the library crates whose name no other `.rs` file
/// of the repository mentions, with the reason each stays public. A new
/// `pub fn` that nothing calls fails `uncalled_pub_fn_census` until it
/// gains a caller, becomes private, is deleted, or is listed here.
const UNCALLED_PUB_FNS: [(&str, &str, &str); 9] = [
    (
        "crates/bingo-graph/src/io.rs",
        "load_edge_list",
        "loads a real dataset from disk",
    ),
    (
        "crates/bingo-graph/src/io.rs",
        "read_edge_list",
        "reads a real dataset from any reader",
    ),
    (
        "crates/bingo-graph/src/io.rs",
        "save_edge_list",
        "writes a graph for other tools",
    ),
    (
        "crates/bingo-graph/src/io.rs",
        "write_edge_list",
        "writes a graph to any writer",
    ),
    (
        "crates/bingo-walks/src/analytics.rs",
        "simrank_estimate",
        "downstream analytics over walks",
    ),
    (
        "crates/bingo-walks/src/analytics.rs",
        "visit_ranking",
        "downstream analytics over walks",
    ),
    (
        "crates/bingo-walks/src/walk_store.rs",
        "generate_from",
        "WalkStore refresh API, to be reworked",
    ),
    (
        "crates/bingo-walks/src/walk_store.rs",
        "validate",
        "WalkStore refresh API, to be reworked",
    ),
    (
        "crates/bingo-walks/src/wire.rs",
        "decode_context",
        "inverse of encode_context, which the benchmark calls",
    ),
];

#[test]
fn uncalled_pub_fn_census() {
    use bingo_lint::lexer::{lex, TokKind};
    use std::collections::{BTreeMap, BTreeSet};

    fn collect(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                collect(&path, root, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let source = std::fs::read_to_string(&path).expect("readable source");
                out.push((rel.to_string_lossy().replace('\\', "/"), source));
            }
        }
    }

    // Every file a caller can live in: the libraries and shims, the root
    // package, its tests and examples, and the benchmark.
    let root = repo_root();
    let mut files: Vec<(String, String)> = bingo_lint::workspace_files(root)
        .expect("workspace walk")
        .into_iter()
        .map(|f| (f.path, f.source))
        .collect();
    for dir in ["tests", "examples", "benchmark/src", "benchmark/tests"] {
        collect(&root.join(dir), root, &mut files);
    }
    let mut idents: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut defined: Vec<(&str, String)> = Vec::new();
    let lexed: Vec<_> = files.iter().map(|(_, source)| lex(source)).collect();
    for ((path, _), lexed) in files.iter().zip(&lexed) {
        let toks = &lexed.tokens;
        let names = toks.iter().filter(|t| t.kind == TokKind::Ident);
        idents.insert(path, names.map(|t| t.text.as_str()).collect());
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        for w in toks.windows(3) {
            if w[0].text == "pub" && w[1].text == "fn" && !lexed.is_test_line(w[0].line) {
                defined.push((path, w[2].text.clone()));
            }
        }
    }
    let uncalled: BTreeSet<(&str, &str)> = defined
        .iter()
        .filter(|(path, name)| {
            !idents
                .iter()
                .any(|(other, names)| other != path && names.contains(name.as_str()))
        })
        .map(|(path, name)| (*path, name.as_str()))
        .collect();
    let pinned: BTreeSet<(&str, &str)> = UNCALLED_PUB_FNS.iter().map(|&(p, n, _)| (p, n)).collect();
    assert_eq!(
        uncalled, pinned,
        "a pub fn no other file names must gain a caller, become private, \
         be deleted, or be listed with its reason in UNCALLED_PUB_FNS"
    );
}
