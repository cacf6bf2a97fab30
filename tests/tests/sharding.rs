//! Integration tests for the partition-sharded serving engine: with
//! `engine_shards(n)`, requests whose predicted partition footprint lands on
//! one shard run concurrently, everything imprecise escalates to the global
//! lane — and the recorded history and database must stay byte-identical to
//! the sequential server's, whatever the shard count (at `0` or `1` the
//! engine runs every request itself).

use proptest::prelude::*;
use std::sync::mpsc::channel;
use std::time::Duration;
use warp_core::{AppConfig, Durability, MemoryBackend, StoreOptions, Warp, WarpServer};
use warp_http::HttpRequest;
use warp_ttdb::TableAnnotation;

/// A notes app whose `note` table is partition-clone-safe (no unique
/// constraint at all, natural row ids), so inserts and updates shard; plus
/// entries that must escalate (an unpinned scan and a nondeterministic
/// page).
fn app() -> AppConfig {
    let mut config = AppConfig::new("sharded-notes");
    config.add_table(
        "CREATE TABLE note (note_id INTEGER, topic TEXT, body TEXT)",
        TableAnnotation::new()
            .row_id("note_id")
            .partitions(["topic"]),
    );
    for t in 0..TOPICS {
        config.seed(format!(
            "INSERT INTO note (note_id, topic, body) VALUES ({}, 't{t}', 'seed {t}')",
            t + 1
        ));
    }
    config.add_source(
        "post.wasl",
        "db_query(\"INSERT INTO note (note_id, topic, body) VALUES (\" . int(param(\"id\")) . \", '\" \
         . sql_escape(param(\"topic\")) . \"', '\" . sql_escape(param(\"body\")) . \"')\"); \
         echo(\"posted\");",
    );
    config.add_source(
        "edit.wasl",
        "db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE topic = '\" \
         . sql_escape(param(\"topic\")) . \"'\"); echo(\"edited\");",
    );
    config.add_source(
        "read.wasl",
        "let rows = db_query(\"SELECT body FROM note WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
         let out = \"\"; foreach (rows as r) { out = out . \"[\" . r[\"body\"] . \"]\"; } echo(out);",
    );
    // Unpinned read of a partitioned table: the router must escalate this
    // to the global lane (it sees every partition).
    config.add_source(
        "scan.wasl",
        "let rows = db_query(\"SELECT body FROM note\"); echo(len(rows));",
    );
    // Nondeterminism: must escalate so the engine's recorded counters stay
    // the single source of randomness.
    config.add_source("lucky.wasl", "echo(\"lucky \" . rand());");
    // The request parameter is only part of the pinned literal (`t` . n):
    // the partition is neither the parameter's nor a fixed one, so the
    // router must escalate rather than guess an owner.
    config.add_source(
        "stamp.wasl",
        "db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE topic = 't\" \
         . sql_escape(param(\"n\")) . \"'\"); echo(\"stamped\");",
    );
    config
}

const TOPICS: usize = 7;

/// Decodes one generator value into a request; `i` (the op's position)
/// supplies a unique note id for inserts.
fn request_for(op: u32, i: usize) -> HttpRequest {
    let topic = format!("t{}", (op / 5) % TOPICS as u32);
    match op % 5 {
        0 => HttpRequest::get(&format!(
            "/post.wasl?id={}&topic={topic}&body=post-{i}",
            1000 + i
        )),
        1 => HttpRequest::post(
            "/edit.wasl",
            [
                ("topic", topic.as_str()),
                ("body", format!("edit {i} of {topic}").as_str()),
            ],
        ),
        2 | 3 => HttpRequest::get(&format!("/read.wasl?topic={topic}")),
        _ => match (op / 5) % 3 {
            0 => HttpRequest::get("/scan.wasl"),
            1 => HttpRequest::get("/lucky.wasl"),
            _ => HttpRequest::get(&format!(
                "/stamp.wasl?n={}&body=stamp-{i}",
                (op / 15) % TOPICS as u32
            )),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance criterion: random multi-partition histories with
    /// cross-shard and escalating requests interleaved, served at 0, 1, 2,
    /// 4 and 8 shards, end in canonical dumps (and response transcripts)
    /// byte-identical to the sequential server's.
    #[test]
    fn sharded_serving_equals_sequential_at_every_shard_count(
        ops in proptest::collection::vec(0u32..10_000, 12..48),
    ) {
        let mut reference = WarpServer::new(app());
        let reference_bodies: Vec<String> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| reference.handle(request_for(op, i)).body)
            .collect();
        let reference_dump = reference.db.canonical_dump();

        for shards in [0usize, 1, 2, 4, 8] {
            let warp = Warp::builder().app(app()).engine_shards(shards).start();
            let bodies: Vec<String> = ops
                .iter()
                .enumerate()
                .map(|(i, &op)| warp.serve(request_for(op, i)).body)
                .collect();
            // Nondeterministic pages legitimately differ between runs of
            // different *servers* only if the rng diverges — but both paths
            // use the same deterministic counter, so even those match.
            prop_assert_eq!(
                &bodies,
                &reference_bodies,
                "responses diverged at {} shards",
                shards
            );
            prop_assert_eq!(warp.with_server(|s| s.history.len()), ops.len());
            let dump = warp.close().db.canonical_dump();
            prop_assert_eq!(
                &dump,
                &reference_dump,
                "canonical dump diverged at {} shards",
                shards
            );
        }
    }
}

/// Multi-threaded clients over a sharded engine: per-topic confinement makes
/// the final state interleaving-independent, and it must match the
/// sequential reference byte for byte.
#[test]
fn concurrent_sharded_serving_matches_sequential_final_state() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 16;
    let requests = |t: usize| -> Vec<HttpRequest> {
        (0..PER_THREAD)
            .map(|i| {
                if i % 3 == 2 {
                    HttpRequest::get(&format!("/read.wasl?topic=t{t}"))
                } else {
                    HttpRequest::post(
                        "/edit.wasl",
                        [
                            ("topic", format!("t{t}").as_str()),
                            ("body", format!("thread {t} revision {i}").as_str()),
                        ],
                    )
                }
            })
            .collect()
    };

    let warp = Warp::builder().app(app()).engine_shards(4).start();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let warp = warp.clone();
            std::thread::spawn(move || {
                for request in requests(t) {
                    assert_ne!(warp.serve(request).status, 503);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    assert_eq!(warp.with_server(|s| s.history.len()), THREADS * PER_THREAD);
    let mut sharded = warp.close();

    let mut reference = WarpServer::new(app());
    for t in 0..THREADS {
        for request in requests(t) {
            reference.handle(request);
        }
    }
    assert_eq!(
        sharded.db.canonical_dump(),
        reference.db.canonical_dump(),
        "sharded concurrent serving must end in the sequential final state"
    );
}

/// The durability contract holds under sharding: a request acknowledged by
/// `serve` on any shard is already in the crash image, even though records
/// are written by the engine thread after shard execution.
#[test]
fn group_commit_acks_survive_crash_image_under_sharding() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 10;
    let backend = MemoryBackend::new();
    let (warp, _) = Warp::builder()
        .app(app())
        .backend(Box::new(backend.clone()))
        .store_options(StoreOptions {
            segment_bytes: 2048,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        })
        .durability(Durability::Group {
            max_batch: 8,
            max_delay: Duration::from_micros(300),
        })
        .engine_shards(4)
        .build()
        .expect("open sharded group-commit deployment");

    let (acked_tx, acked_rx) = channel::<String>();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let warp = warp.clone();
            let acked_tx = acked_tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let body = format!("ack {t}/{i}");
                    warp.serve(HttpRequest::post(
                        "/edit.wasl",
                        [("topic", format!("t{t}").as_str()), ("body", body.as_str())],
                    ));
                    acked_tx.send(body).expect("ack channel");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    drop(acked_tx);
    let acked: Vec<String> = acked_rx.iter().collect();
    assert_eq!(acked.len(), THREADS * PER_THREAD);

    // Crash: drop the handle with no close or flush; recover the image.
    let image = backend.snapshot();
    drop(warp);
    let (recovered, report) = Warp::builder()
        .app(app())
        .backend(Box::new(image))
        .build()
        .expect("recover from crash image");
    assert!(report.recovered);
    let bodies = recovered.with_server(|s| {
        s.history
            .actions()
            .iter()
            .filter_map(|a| a.request.form.get("body").cloned())
            .collect::<std::collections::BTreeSet<String>>()
    });
    for body in &acked {
        assert!(
            bodies.contains(body),
            "acknowledged edit `{body}` lost by the crash"
        );
    }
}

/// Repairs are barriers: a retroactive patch started mid-traffic on a
/// sharded deployment drains the shards, repairs the serialized history,
/// and subsequent sharded requests see the repaired state.
#[test]
fn repair_barriers_the_shards_and_serving_resumes() {
    let warp = Warp::builder().app(app()).engine_shards(4).start();
    for i in 0..6 {
        warp.serve(HttpRequest::post(
            "/edit.wasl",
            [
                ("topic", format!("t{}", i % TOPICS).as_str()),
                ("body", format!("<b>rev {i}</b>").as_str()),
            ],
        ));
    }
    let patch = warp_core::Patch::new(
        "read.wasl",
        "let rows = db_query(\"SELECT body FROM note WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
         let out = \"\"; foreach (rows as r) { out = out . \"[\" . htmlspecialchars(r[\"body\"]) . \"]\"; } echo(out);",
        "escape note bodies",
    );
    let outcome = warp
        .repair(warp_core::RepairRequest::RetroactivePatch {
            patch,
            from_time: 0,
        })
        .join();
    assert!(!outcome.aborted);
    let r = warp.serve(HttpRequest::get("/read.wasl?topic=t0"));
    assert!(
        r.body.contains("&lt;b&gt;"),
        "post-repair sharded serving must run the patched source: {}",
        r.body
    );
}
