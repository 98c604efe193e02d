//! Structural guards: each test names one mechanism the code has exactly
//! one of, and fails when a deleted alternative comes back. The patterns run
//! through `grep` from the repository root; this file spells every pattern,
//! so every search skips it.

use std::process::Command;

/// Runs `tool` with `args` at the repository root; returns whether it
/// exited 0 (for `grep`: matched) and its output. Exit status 1 (no match)
/// is a result, anything above it an error.
fn run(tool: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(tool)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("{tool} does not start: {e}"));
    assert!(
        out.status.code().is_some_and(|c| c <= 1),
        "{tool} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

/// `grep args` with this file excluded. The exclusion goes last among the
/// options, so that it wins over an `--include`.
fn grep(args: &[&str]) -> (bool, String) {
    let mut all = args.to_vec();
    let at = all.iter().position(|&a| a == "--").unwrap_or(all.len());
    all.insert(at, "--exclude=structure.rs");
    run("grep", &all)
}

/// Asserts `grep args` matches nothing.
fn absent(guard: &str, args: &[&str]) {
    let (matched, hits) = grep(args);
    assert!(!matched, "{guard}: forbidden match\n{hits}");
}

/// Asserts `grep args` matches.
fn present(guard: &str, args: &[&str]) {
    assert!(grep(args).0, "{guard}: required match missing");
}

/// "WireSize has exactly one impl". A value's metered size is its encoder
/// run into a byte counter: the one blanket `impl WireSize` in
/// `crates/util/src/wire.rs`. Coherence already rejects a second impl for a
/// `WireEncode` type; this keeps the rule visible and catches an attempt to
/// route around the blanket.
#[test]
fn wire_size_has_exactly_one_impl() {
    const GUARD: &str = "WireSize has exactly one impl";
    let (_, hits) = grep(&[
        "-rnE",
        "impl.*WireSize for",
        "crates",
        "src",
        "tests",
        "--include=*.rs",
    ]);
    let elsewhere: Vec<&str> = hits
        .lines()
        .filter(|l| !l.contains("crates/util/src/wire.rs"))
        .collect();
    assert!(elsewhere.is_empty(), "{GUARD}: {elsewhere:?}");
    let (_, count) = grep(&["-cE", "impl.*WireSize for", "crates/util/src/wire.rs"]);
    assert_eq!(count.trim(), "1", "{GUARD}");
}

/// "Algorithm 2 hashes nothing per batch". The output mask of Algorithm 2
/// is `C*`'s own sorted rows, and `Z` is merged into `C` as a sorted stream.
/// A mask or a `Z` lookup rebuilt as a hash table costs one cache-missing
/// probe per scanned product (ten are scanned for each one admitted) and a
/// table build per round.
#[test]
fn algorithm_2_hashes_nothing_per_batch() {
    const GUARD: &str = "Algorithm 2 hashes nothing per batch";
    absent(
        GUARD,
        &[
            "-nE",
            "FxHash(Set|Map)",
            "crates/sparse/src/masked_mm.rs",
            "crates/core/src/dyn_general.rs",
        ],
    );
    absent(GUARD, &["-rn", "fn admits", "crates"]);
}

/// "the local kernel hashes nothing per product". A sparse output row of
/// the unmasked kernel is sort-merged: its products rarely coincide on the
/// hypersparse update shapes, so a hash-map probe per product costs 3–4 ×
/// the one sort the row needs anyway for its column-sorted output. A hash
/// accumulator brought back into the kernel, its workspace or the SPA
/// module fails here.
#[test]
fn the_local_kernel_hashes_nothing_per_product() {
    const GUARD: &str = "the local kernel hashes nothing per product";
    absent(
        GUARD,
        &[
            "-nE",
            "FxHash|HashMap",
            "crates/sparse/src/spa.rs",
            "crates/sparse/src/local_mm.rs",
            "crates/sparse/src/workspace.rs",
        ],
    );
    absent(GUARD, &["-rn", "HashSpa", "crates", "src", "tests"]);
}

/// "the kernels spawn no intra-rank workers". Ranks are the parallel unit:
/// each is an OS thread (simulator) or an OS process (TCP), and they already
/// fill the cores. A worker pool inside a kernel competes with the other
/// ranks for those same cores, so a spawned thread, a row split or a
/// per-thread counter brought back into the library fails here.
#[test]
fn the_kernels_spawn_no_intra_rank_workers() {
    const GUARD: &str = "the kernels spawn no intra-rank workers";
    absent(
        GUARD,
        &[
            "-rnE",
            "thread::(scope|spawn)",
            "crates/util/src",
            "crates/sparse/src",
            "crates/core/src",
            "crates/analytics/src",
            "crates/baselines/src",
        ],
    );
    absent(
        GUARD,
        &[
            "-rnE",
            "dspgemm_util::par|thread_flops|flop_imbalance|shard_rows_mut|KernelPlan|--threads",
            "crates",
            "src",
            "tests",
            "examples",
            "README.md",
            "ARCHITECTURE.md",
            "DESIGN.md",
        ],
    );
}

/// "one workspace per payload". With one worker per rank a kernel call
/// needs one workspace, and the session's `Exec` owns exactly one per
/// payload. A pool of workspaces, a lease guard or a lock around a
/// workspace brought back fails here.
#[test]
fn one_workspace_per_payload() {
    const GUARD: &str = "one workspace per payload";
    absent(
        GUARD,
        &[
            "-rnwE",
            "WorkspacePool|WorkspaceLease|TransposePool|TransposeLease|stashed",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
    absent(
        GUARD,
        &[
            "-n",
            "Mutex",
            "crates/sparse/src/workspace.rs",
            "crates/core/src/exec.rs",
        ],
    );
}

/// "one dynamic round body". Both shapes of Algorithm 1 run one body,
/// `compute_cstar`: Y pass → apply → X pass, and Algorithm 2's masked
/// recompute is the X pass under a broadcast mask. A second round loop for
/// a shape, a schedule that interleaves the passes or a tag per shape for
/// the one `A^R` exchange fails here.
#[test]
fn one_dynamic_round_body() {
    const GUARD: &str = "one dynamic round body";
    absent(
        GUARD,
        &[
            "-rnE",
            "compute_cstar_exec|compute_cstar_shared_exec|masked_recompute_rounds|TAG_AR_SHARED",
            "crates",
            "src",
            "tests",
        ],
    );
    absent(
        GUARD,
        &["-n", "run_rounds", "crates/core/src/dyn_general.rs"],
    );
}

/// "one batch body per algorithm". Eq. 1 covers `C = A·A` as the case
/// `B = A`, `B* = A*`, so each algorithm has one crate-private batch body
/// that takes `B` as an `Option`, and `DynSpGemm` is their one public entry.
/// A body per shape, a two-variant operand enum or a public loose-operand
/// entry brought back fails here. `-w` matches whole words, so the
/// adapter-frozen `apply_algebraic_updates_prebuilt_exec` and test names
/// that merely start with a deleted name do not trip it.
#[test]
fn one_batch_body_per_algorithm() {
    absent(
        "one batch body per algorithm",
        &[
            "-rnwE",
            "shared_algebraic|shared_general|Operands::(Pair|Shared)|\
             apply_algebraic_updates_exec|apply_algebraic_prebuilt_exec|apply_general_updates_exec",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
}

/// "one receive path". Every receive in the simulator is one request: its
/// parts are taken from the buffer at issue or registered as arrival
/// actions, and the last arrival fills its slot, so same-key receives match
/// in post order. A second blocking match loop, a lazily polled receive
/// state or a posted-receive ledger brought back fails here. Scoped to
/// mpisim because `Dcsr::from_parts` and `Csr::from_parts` are unrelated
/// names.
#[test]
fn one_receive_path() {
    absent(
        "one receive path",
        &[
            "-rnwE",
            "recv_match|from_parts|PartRecv|post_recv|unpost_recv|is_posted",
            "crates/mpisim/src",
        ],
    );
}

/// "one record per phase". `PhaseTimer` keeps one record per phase: the
/// exposed wall time Fig. 7 and Fig. 12 print. The compute-hidden share of a
/// request lives only in the simulator's meter (`CommStats`
/// `overlapped_ns`), and the baselines time no phases. A second overlap
/// split, a counter bank behind the timer or a baseline phase timer fails
/// here. `-w` matches whole words, so the meter's own `record_overlapped`
/// does not trip it.
#[test]
fn one_record_per_phase() {
    const GUARD: &str = "one record per phase";
    absent(
        GUARD,
        &[
            "-rnwE",
            "CounterBank|add_overlapped|comm_total|comm_overlapped|comm_exposed|record_overlap|export_into",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
    absent(GUARD, &["-rn", "PhaseTimer", "crates/baselines"]);
}

/// "one observability channel". `obs` has one observability channel: spans
/// and instants carry every number it records (the `epoch_publish` instant
/// the block loads, the `recover` span the recovery report, the `query`
/// spans the query latencies), and a caller gets its own numbers back in a
/// returned struct. A process-global metrics store is a second channel that
/// a TCP rank child loses on exit and that nothing may read back.
#[test]
fn one_observability_channel() {
    const GUARD: &str = "one observability channel";
    absent(
        GUARD,
        &[
            "-rnwE",
            "Registry|RegistrySnapshot|observe_query|staleness_bucket|gauge_set|counter_add",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
    absent(
        GUARD,
        &[
            "-rnE",
            "obs::global|metrics-out",
            "crates",
            "src",
            "tests",
            "examples",
            "README.md",
            "ARCHITECTURE.md",
            "DESIGN.md",
        ],
    );
}

/// "one meter". The network counts one thing, `CommStats`, and both
/// transports report it. Broadcast and allgather forward `T::clone` on every
/// edge (the `_shared` forms are the `Arc` instantiation), so a counter only
/// the simulator can fill — a clone meter, a retry count — or a second
/// edge-duplication path fails here. One function reads those counters per
/// call, `report::meter`: outside the simulator no library or experiment
/// code reads `comm_stats()`, and the hand-rolled meters it replaced stay
/// gone.
#[test]
fn one_meter() {
    const GUARD: &str = "one meter";
    let (_, hits) = grep(&["-rn", "comm_stats()", "crates", "--include=*.rs"]);
    let elsewhere: Vec<&str> = hits
        .lines()
        .filter(|l| l.split('/').nth(2) == Some("src"))
        .filter(|l| {
            !l.starts_with("crates/mpisim/") && !l.starts_with("crates/core/src/report.rs:")
        })
        .collect();
    assert!(elsewhere.is_empty(), "{GUARD}: {elsewhere:?}");
    absent(
        GUARD,
        &[
            "-rnwE",
            "measured_collective|timed_collective|median_cost|delta_since|total_exposed_ns",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
    absent(
        GUARD,
        &[
            "-rnwE",
            "payload_clones|record_payload_clone|transient_retries|transient_drops|TransientSpec|bcast_with|exscan|isend",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
    absent(
        GUARD,
        &[
            "-rnE",
            "payload_clones|transient_retries|transient_drops",
            "README.md",
            "ARCHITECTURE.md",
            "DESIGN.md",
        ],
    );
}

/// "lanes travel packed". Every chunk of the update exchange is one
/// bit-packed `TripleLane` per lane. A redistribution that hands `alltoallv`
/// raw tuple vectors again (fixed width: 16 B per `f64` tuple) fails here.
#[test]
fn lanes_travel_packed() {
    const GUARD: &str = "lanes travel packed";
    present(
        GUARD,
        &[
            "-qF",
            "--",
            "-> Vec<Vec<TripleLane<V>>>",
            "crates/core/src/redistribute.rs",
        ],
    );
    absent(
        GUARD,
        &["-nF", "Vec<Vec<Vec<", "crates/core/src/redistribute.rs"],
    );
}

/// "the product applies by rows". The untracked product is only ever
/// mutated by column-sorted runs, so `add_cstar` merges each `C*` row into
/// its row of `C` and the rows stay sorted and unindexed. A per-entry point
/// insert brought back rebuilds a hash index on every heavy row: 11–23 B per
/// entry of `C`.
#[test]
fn the_product_applies_by_rows() {
    const GUARD: &str = "the product applies by rows";
    let (_, body) = run(
        "sed",
        &[
            "-n",
            "/^pub(crate) fn add_cstar</,/^}/p",
            "crates/core/src/dyn_algebraic.rs",
        ],
    );
    assert!(
        body.contains("merge_row"),
        "{GUARD}: no merge_row in\n{body}"
    );
    assert!(!body.contains("add_entry"), "{GUARD}: add_entry in\n{body}");
}

/// "no local transposition". Algorithm 1's round roots broadcast the block
/// their root lane of the batch's redistribution assembled, in natural
/// orientation. A local transposition of a built block, its scratch or its
/// phase fails here.
#[test]
fn no_local_transposition() {
    absent(
        "no local transposition",
        &[
            "-rnwE",
            "TransposeWorkspace|transpose_into|transpose_ws|transpose_star|TRANSPOSE_LOCAL|transpose_virtual",
            "crates",
            "src",
            "tests",
            "examples",
            "ARCHITECTURE.md",
            "DESIGN.md",
            "README.md",
        ],
    );
}

/// "one arm per competitor". Each §VII protocol runs the three competitors
/// through one generic function over `baselines::Competitor`, instantiated
/// per system and semiring. A per-competitor arm copied back, or a system
/// chosen by matching its name, fails here.
#[test]
fn one_arm_per_competitor() {
    absent(
        "one arm per competitor",
        &[
            "-rnE",
            "fn (combblas|ctf|petsc)_|\"combblas\" =>",
            "crates/bench/src/experiments/",
        ],
    );
}

/// "engine features compose". Every call that moves a `DynSpGemm` session's
/// state is one `Batch` through one commit path, so recovery logs and
/// replays Algorithm 1, Algorithm 2, recomputes and migrations alike, and
/// rebalancing, recovery and filter tracking compose. An engine feature that
/// asserts another one off, or a second, kind-specific fallible entry, fails
/// here.
#[test]
fn engine_features_compose() {
    const GUARD: &str = "engine features compose";
    absent(GUARD, &["-rn", "mutually exclusive", "crates/core/src"]);
    absent(
        GUARD,
        &["-n", "fn try_apply_algebraic", "crates/core/src/engine.rs"],
    );
}

/// "one recovery entry". A session recovers through one call,
/// `DynSpGemm::recover(grid, err)`: the error its batch call returned picks
/// the role, survivor or replacement. Two anchor windows bound the log,
/// because an epoch holds at most one record. A second recovery entry or a
/// separate log cap brought back fails here.
#[test]
fn one_recovery_entry() {
    const GUARD: &str = "one recovery entry";
    absent(
        GUARD,
        &[
            "-n",
            "fn recover_as_replacement",
            "crates/core/src/engine.rs",
        ],
    );
    absent(
        GUARD,
        &["-rn", "max_log", "crates/core/src", "crates/bench/src"],
    );
}

/// "one crash mechanism". A rank crashes because a program armed it with
/// `Comm::arm_crash`; a `FaultPlan` schedules delays only. A crash scheduled
/// up front by the plan brought back fails here.
#[test]
fn one_crash_mechanism() {
    absent(
        "one crash mechanism",
        &[
            "-rnE",
            r"crash_before_send|pub crash:|plan\.crash",
            "crates",
            "src",
            "tests",
        ],
    );
}

/// "one engine under the serving layer". The analytics session is a
/// shared-mode `DynSpGemm` plus its view registry: its batches run the
/// engine's one commit path, its epochs come out of the engine's one publish
/// and store, and its initial product is the engine's. A shared-operand
/// entry point outside the engine, or a session that computes its own
/// product, keeps its own store or publishes on its own, fails here.
#[test]
fn one_engine_under_the_serving_layer() {
    const GUARD: &str = "one engine under the serving layer";
    absent(
        GUARD,
        &[
            "-rn",
            "apply_shared_",
            "crates",
            "src",
            "tests",
            "examples",
            "benchmark",
            "README.md",
            "ARCHITECTURE.md",
            "DESIGN.md",
        ],
    );
    absent(
        GUARD,
        &[
            "-rnE",
            "summa_bloom_exec|SnapshotStore::new|record_epoch_publish",
            "crates/analytics/src",
        ],
    );
}

/// "one mask type". An output mask is a pattern `Dcsr`: the `C*` block as
/// it arrives, or a `Dcsr<()>` built from a pattern or from candidate pairs.
/// A second owned copy of that structure, or a threads-only twin of the one
/// distributed masked product, brought back fails here.
#[test]
fn one_mask_type() {
    const GUARD: &str = "one mask type";
    absent(
        GUARD,
        &[
            "-rnE",
            r"struct MaskSet|impl OutputMask for MaskSet|masked_product_exec",
            "crates",
            "src",
            "tests",
            "examples",
        ],
    );
    present(
        GUARD,
        &[
            "-n",
            "pub type MaskSet = Dcsr<()>;",
            "crates/sparse/src/masked_mm.rs",
        ],
    );
}

/// "one percentile". The benchmarks take exact order statistics of the
/// few dozen samples they keep (`measure::quantile`). A bucketed histogram,
/// or a metrics module in `obs` to hold one, brought back fails here.
#[test]
fn one_percentile() {
    const GUARD: &str = "one percentile";
    absent(GUARD, &["-rn", "Histogram", "crates", "src"]);
    absent(GUARD, &["-rnE", r"mod metrics|metrics::", "crates/obs/src"]);
    let module = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/obs/src/metrics.rs");
    assert!(
        !std::path::Path::new(module).exists(),
        "{GUARD}: crates/obs/src/metrics.rs is back"
    );
}

/// "observability is a reader". The tracer is switched by one caller, the
/// `repro` binary's `--trace-out`, and drained by it alone; library code and
/// experiments only record. An experiment that switches the tracer per arm
/// so that an exported trace shows what a check expects makes the trace an
/// input.
#[test]
fn observability_is_a_reader() {
    const GUARD: &str = "observability is a reader";
    let (_, hits) = grep(&[
        "-rnE",
        r"set_enabled\(|dspgemm_obs::drain\(",
        "crates",
        "--include=*.rs",
    ]);
    let elsewhere: Vec<&str> = hits
        .lines()
        .filter(|l| l.split('/').nth(2) == Some("src"))
        .filter(|l| {
            !l.starts_with("crates/obs/src/") && !l.starts_with("crates/bench/src/bin/repro.rs:")
        })
        .collect();
    assert!(elsewhere.is_empty(), "{GUARD}: {elsewhere:?}");
}

/// "the unmasked X pass ships operands, not products". Its partial
/// products are about twice the star block and the `B′` rows it selects,
/// so each round gathers those to the round root, which multiplies and
/// folds them in the merge-reduction's bracket order after the last round. Only the masked
/// recompute, whose mask bounds the partials, and the Y pass, which would
/// need `A`'s columns, merge-reduce products. A reduction brought back into
/// the unmasked pass fails here.
#[test]
fn the_unmasked_x_pass_ships_operands() {
    const GUARD: &str = "the unmasked X pass ships operands, not products";
    let file = "crates/core/src/dyn_algebraic.rs";
    let body = |head: &str| run("sed", &["-n", &format!("/^{head}/,/^}}/p"), file]).1;
    let (ship, sum) = (body("fn ship_operands"), body("fn sum_products"));
    assert!(ship.contains(".gather("), "{GUARD}: ship_operands gathers");
    assert!(
        sum.contains("fold_in_reduce_order"),
        "{GUARD}: sum_products folds"
    );
    for (name, f) in [("ship_operands", &ship), ("sum_products", &sum)] {
        assert!(!f.contains(".reduce("), "{GUARD}: {name} reduces");
    }
    let x_pass = body(r"pub(crate) fn x_pass");
    for f in ["ship_operands::<", "sum_products::<"] {
        assert!(x_pass.contains(f), "{GUARD}: x_pass calls {f}");
    }
    let (_, reductions) = grep(&["-c", r"\.reduce(", file]);
    assert_eq!(reductions.trim(), "2", "{GUARD}: masked X pass and Y pass");
}

/// "the design documents name live items". Every backticked `a::b` path in
/// DESIGN.md and ARCHITECTURE.md ends in a name that an item, a variant or
/// a field under `crates/`, `src/` or `tests/` still defines; `std::` paths
/// are exempt. A doc that keeps describing a deleted helper fails here.
#[test]
fn design_names_live_items() {
    const GUARD: &str = "the design documents name live items";
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let (_, files) = run(
        "grep",
        &["-rl", "--include=*.rs", "", "crates", "src", "tests"],
    );
    let mut defined = std::collections::BTreeSet::new();
    for file in files.lines() {
        let text = std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR")))
            .expect("a listed source file");
        for line in text.lines() {
            let line = line.trim_start();
            let line = line.strip_prefix("pub(crate) ").unwrap_or(line);
            let line = line.strip_prefix("pub ").unwrap_or(line);
            let words: Vec<&str> = line.split(|c: char| !ident(c)).collect();
            // An item after its keyword, a re-export's alias, or a variant or
            // field leading its line.
            for pair in words.windows(2) {
                let keyword = matches!(
                    pair[0],
                    "fn" | "struct"
                        | "enum"
                        | "trait"
                        | "type"
                        | "const"
                        | "static"
                        | "mod"
                        | "as"
                        | "macro_rules"
                );
                if keyword && !pair[1].is_empty() {
                    defined.insert(pair[1].to_string());
                }
            }
            let lead: String = line.chars().take_while(|&c| ident(c)).collect();
            if line[lead.len()..].starts_with([',', '(', ':', ' ']) && !lead.is_empty() {
                defined.insert(lead);
            }
        }
    }
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "ARCHITECTURE.md"] {
        let text = std::fs::read_to_string(format!("{}/{doc}", env!("CARGO_MANIFEST_DIR")))
            .expect("the design documents exist");
        for span in text.split('`').skip(1).step_by(2) {
            // Every maximal `a::b::c` path in the span.
            let mut rest = span;
            while let Some(at) = rest.find("::") {
                let head_at = rest[..at].rfind(|c: char| !ident(c)).map_or(0, |i| i + 1);
                let mut segments = vec![&rest[head_at..at]];
                let mut tail = &rest[at..];
                while let Some(after) = tail.strip_prefix("::") {
                    let end = after.find(|c: char| !ident(c)).unwrap_or(after.len());
                    segments.push(&after[..end]);
                    tail = &after[end..];
                }
                rest = tail;
                let last = *segments.last().expect("a path has segments");
                if segments[0].is_empty() || last.is_empty() || segments[0] == "std" {
                    continue;
                }
                if !defined.contains(last) {
                    stale.push(format!("{doc}: `{}`", segments.join("::")));
                }
            }
        }
    }
    assert!(stale.is_empty(), "{GUARD}: {stale:#?}");
}
