#!/usr/bin/env sh
# Ratchet for the ROADMAP's tracked design metric: the lines of code in
# `crates/executor/src` + `crates/planner/src` (tests and comments
# included — the number the ROADMAP has quoted since the re-anchor) must
# not exceed the ceiling committed here, and with `crates/core/src` added
# they must not exceed the combined one below. A PR that shrinks the
# engine lowers its ceilings to its result in the same change; one that
# has to grow it raises them on purpose, in review, instead of in prose.
#
# Moves so far:
# * PR 24, 10219 -> 10640 (+421; the issue's target was +350): column
#   pruning is a new pass, not a cheaper kernel. `planner/src/prune.rs`
#   (169 lines: the required-columns walk and its six node rules), the
#   `remap`s it rewrites ordinals with (`Predicate`, `AggFunc`), a scan
#   filter compiled for predicate ∪ output columns with `with_columns` on
#   every access path, emit lists through `probe_emit` / `HashJoin` /
#   `IndexNestedLoopJoin` / `PhaseBuild`, and the labels `explain` pins
#   the narrowing with. It bought -29 % on `analytic_serial`'s round
#   (CHANGES.md, PR 24); nothing it adds is a second path or a knob.
# * 10640 -> 10679 (+39): storage sessions. The per-key
#   `InnerProbe::probe`, Index Scan's per-TID loop and Sort Scan's
#   collect-then-map are deleted, not kept beside the morsel paths; what
#   remains over is the index join's morsel loop (every key probed and
#   fetched on one session, then one residual pass with the fetched
#   tuples' outer rows carried beside them), the `slot_tuples` helper
#   both index paths share, and the attribution test in `schedule.rs`
#   growing an Index Scan and an index join. It bought -9 % on
#   `analytic_serial`'s round and -33 % on `tpch_q4` (CHANGES.md).
# * 10679 -> 10700 (+21): one index join with two inner sides. The
#   executor gains the `InnerPath` trait, the plain side's impl block
#   around the unchanged probe loop and `IndexNestedLoopJoin::with_inner`;
#   the planner gains the arm that gives a `Smooth(_)` inner access the
#   morphing side. Against them go the model's steal surcharge
#   (`STEAL_PENALTY_PERMILLE` and `run_queued`'s `permille`, -21 lines)
#   and, in `crates/core`, the second join operator
#   (`SmoothIndexNestedLoopJoin`): `crates/{core,executor,planner}/src`
#   together end where they started.
# * 10700 -> 10699 (-1): scans decode one morsel ahead. The page queue
#   and its one fill loop (`PageQueue`, `fill_from`) replace Sort Scan's
#   TID sort, per-page slot lists and prefetch-run structs and Full Scan's
#   hand-rolled fill loop; `fill_page_columns` is gone (the heap decoder,
#   its last caller, loops inline). The TID bitmap Sort Scan walks is
#   `smooth_types::TidBitmap`, beside `Tid`, because Smooth and Switch
#   Scan's Tuple-ID cache is now that same type.
# * 10699 -> 10390 (-309): one morsel per claim. The scheduler's guided
#   chunk claims, per-worker morsel deques, work stealing and the
#   `claim_morsels` knob go, with the scaling model's copy of them
#   (`claim_size`, `source_claim`, `steal_victim`, `remaining_hint`,
#   `LedgerPhase::chunked`, the simulator's local queues) and the
#   planner's `on_live_pool`. Every counter and every `benchmark/`
#   workload stayed where it was.
# * 10390 -> 10388 (-2): a heap page is walked once. `every_tuple` goes
#   (whole-page readers call `PageView::tuples_into`), and a claim on a
#   failed query takes the same exit as a drained source; they pay for
#   the scheduler's two new wall-clock timers (`src_hold_ns`, `proc_ns`),
#   and the combined sum stays at 13457.
# * 10388 -> 10386 (-2), combined 13457 -> 13189 (-268): Switch Scan is a
#   Smooth Scan trigger. `crates/core/src/switch_scan.rs` (361 lines, 129
#   of them `#[cfg(test)]`) goes; `Trigger::Switch` and the heap-order
#   finish it runs after Mode 0 add 38 lines to `operator.rs` (plus 49
#   of moved unit tests) and 11 to `trigger.rs`; the planner lowers
#   `AccessPathChoice::Switch` through `build_smooth_scan` in 5 lines
#   instead of 13, and pins the `explain` surface in 6.
# * 10386 -> 10169 (-217), combined 13189 -> 12972: one closed form
#   replaces the scaling simulator. `SimQuery`, `simulate`,
#   `modeled_src_wait_ns` and `build_makespan_ns` go; `LedgerPhase` holds
#   three per-phase sums instead of per-morsel `Vec`s, so the trace sites
#   add instead of push, and `multi_query_makespan_ns` loses its
#   admission cap. The ledger unit tests shrink with them (the modeled
#   wait and cap-1 chaining assertions go; one hand-built ledger pins the
#   closed form's laws). No line moved into `tests/`.
# * 10169 -> 10121 (-48), combined 12972 -> 12924: one place decides
#   order. A resolve pass beside `prune` picks every `Auto` access path
#   and join strategy and turns an `ordered:` Full / Sort / Switch scan
#   into a `Sort` over the unordered scan; every root `Sort` lowers to
#   the pool's sort sink, which streams morsels into its sorter instead
#   of buffering them for a second pass. `ordered_heap`, `heap_source`,
#   `sort_wrap`, the Switch arm's spec copy, `resolve_access`,
#   `resolve_join_strategy` and the planner's `Session` go. The
#   claim-race test is a new file under `crates/executor/tests/`; no
#   line moved there.
# * 10121 -> 9930 (-191), combined 12924 -> 12801 (-123): Index Scan is
#   Smooth Scan's Mode 0. `IndexScan` (struct, impl, export, 112 lines)
#   and its executor unit tests go from `scan.rs`; Mode 0 becomes one
#   batched walk in place of `mode0_step`, and `Trigger::Never` plus the
#   two allocation rules (no Tuple-ID cache, no Result Cache for a trigger
#   that never fires) add 8 lines to `trigger.rs` and about a dozen to
#   `operator.rs`. Two Index Scan unit tests move into `operator.rs`'s
#   tests (+45 lines in core); the closed-form property moves from
#   `prop_exec` to `prop_smooth`, which is under `tests/` on both sides.
# * 9930 -> 9748 (-182), combined 12801 -> 12619: a merge join is a hash
#   join under a sort. `MergeJoin` and `MergeInput` (structs, impls,
#   export, 161 lines) and their three `join.rs` unit tests go, with
#   `build_node`'s two-sort `Merge` arm; `resolve` lowers
#   `JoinStrategy::Merge` through an 18-line `hash_under_sort`, and two
#   `db.rs` tests (a `Merge` plan over the old unit tests' data, and the
#   semi join that used to return inner-join rows) replace the unit
#   tests. No line moved into `tests/`. This meets item 6's 9.8k budget.
# * 9748 -> 9637 (-111), combined 12619 -> 12523 (-96): a spill is its
#   charge. The grace join and the external sort stop encoding a second
#   copy of every spilled row into a `SpillFile` nothing read: each spill
#   is one fault-gated `charge_spill_write` of the bytes they already
#   count (`GraceSpill::files`, `spill_files`, the sorter's run files,
#   the live-file counter and the two round-trip unit tests go), and
#   `spill_write` / `SpillFile` stay as a `benchmark/` shim. In core, the
#   Result Cache spills by arena bytes against `SmoothScan::
#   with_mem_budget` instead of the `result_cache_spill` tuple knob
#   (+15 lines: the budget, the resident-byte count and the fault-gated
#   writes). No line moved into `tests/`.
# * 9637 -> 9626 (-11), combined 12523 -> 12523: branch-free predicate
#   kernels. `eval_mask`'s dense arms bind zipped slices through one
#   `fill!` shape, `AND` / `OR` share one arm that folds into a reused
#   mask, a `compact` helper replaces the two filter-and-collect index
#   loops, and `Predicate::eval` lost its hand-written bound matches
#   (`RangeBounds::contains`) and repeated error blocks; the executor
#   ends 11 lines shorter. Core gains them back: the Result Cache stops
#   spilling the cursor's own partition and `defer_advance` folds its
#   match (-4 lines), and a unit test pins the spill rule (+15).
# * 9626 -> 9549 (-77), combined 12523 -> 12446: planner dead code.
#   `Optimizer::advise_indexes` and `Optimizer::tipping_selectivity`
#   (nothing called them: Fig. 1's tuned database takes its indexes from
#   `tpch::gen::create_tuning_indexes`) go with their two unit tests.
# * 9549 -> 9364 (-185), combined 12446 -> 12403 (-43): Sort Scan is a
#   Smooth Scan trigger. `SortScan` (struct, impl, export) and its four
#   `scan.rs` unit tests go, with `SORT_SCAN_PREFETCH_GAP`, which moves
#   into `crates/core`; the planner maps `ForceIndex`, `ForceSort` and
#   `Switch` to `Smooth(config)` in `resolve`, decides the `Sort` above
#   a scan from its trigger, and `build_scan` keeps a Full and a Smooth
#   arm (`need_index` folds into `build_smooth_scan`, its one caller).
#   Core gains `Trigger::Sort`, the range walk at `open`, the marked-run
#   branch of `heap_run`, the marked-slot picker and `close` dropping the
#   marked set as `SortScan::close` did (+85 lines, their docs included),
#   plus the four unit tests moved from `scan.rs` and one pinning Sort
#   Scan's region metrics (+57). No line moved into `tests/`.
# * 9364 -> 9362 (-2), combined 12403 -> 12401: one full table scan.
#   The pipeline's heap source is `FullTableScan` itself, split into a
#   fetch half (`read_run`, under the source lock) and an inspect half
#   (`inspect_run`, on the worker). `SourceCore`, `OpenedSource`,
#   `open_source`, `HeapDecoder` (its page loop and morsel presizing)
#   and `Storage::charge_page_probes` go; `ParallelSource` gains
#   `open` / `pull` / `close` / `file_id` / `schema` / `inspector`, and
#   the planner builds both scans through one `Database::full_scan`.
#   `inspect_run` keeps `HeapDecoder`'s morsel presizing (+11; without
#   it growing morsels regrow every column by doubling, 3-7 % slower).
#   Admission moves from `submit` onto the workers in the same change,
#   and dropping the scheduler still fails the queries waiting for it.
#   The new admission test is under `crates/executor/tests/`.
# * 9362 -> 9275 (-87), combined 12401 -> 12314: one phase list. The
#   workers run the planner's `StageSpec`s, each beside the schema
#   `staged_schemas` typed it with, and a finished build table lives on
#   its phase (`OnceLock<JoinBuildTable>`). `Stage`, `Stage::apply`,
#   `ProbeTable`, `resolve_stages`, `process_item`, `Phase::spec_stages`
#   and its resolved-stage mutex, `ActiveQuery::tables` and
#   `ParallelSource::inspector` go; a heap morsel's inspector is popped
#   in its claim, and the phase advance links and opens outside the
#   source lock. The new admission test and the bushy spill leg are
#   under `tests/`.
# * 9275 -> 9143 (-132), combined 12314 -> 12183: one hash-join build.
#   A build phase's morsels go through the query's ordered sink, which
#   calls `JoinBuildTable::insert_batch` in seq order as `HashJoin`
#   does; the sink state is per phase, reset by `install_phase`.
#   `JoinBuildPartial`, `JoinBuildTable::from_partials` (and its position
#   sort), `append_keyed_rows`' callback, the build slot pool,
#   `ActiveQuery::sink_input`, the partials unit test and the table's
#   dead accessors go. In the same change `SmoothScanConfig::ordered`
#   goes (`ScanSpec::ordered` is the one order flag; the operator takes
#   it from `SmoothScan::with_order`), and `lower` stops typing the
#   stage chains the scheduler types again.
# * 9143 -> 9169 (+26), combined 12183 -> 12209 (+26): every sort and
#   aggregate ends its own phase. Added: `ParallelSource::Output` (a
#   phase reading the previous one's finished batches) and the queue a
#   claim pops them off, `SinkSpec::Build`, one `mem_bytes` on the
#   pipeline, `advance_phase`'s output arm (the fold finish moved out of
#   `complete_ok` into `finish_fold`, which both call, and cuts an
#   aggregate's groups into morsels through a `ColumnBuffer`, whose new
#   `From<ColumnBatch>` is 6 lines in `crates/types`, which this script
#   does not count), `peel`'s `Sort` and `Aggregate`
#   arms with its `source` / `close` helpers, and the `staged_schemas`
#   rules for `Output` sources, probes and the last phase. Deleted:
#   `ParallelPipeline::sink`, `PhaseSpec::build`,
#   `ActiveQuery::{sink_spec, merge_exact}` (now per phase), the two
#   per-sink `mem_bytes` fields, `lower`'s root-only sink match,
#   `ParallelSource::schema`, `SrcState::new` and the builds-then-sink
#   check. Code ends 3 lines shorter; +29 are tests: the flipped
#   decomposition pins in `db.rs` (a `source·stages→sink` shape helper)
#   and the nested-sort leg of `traced_under_each_sink`. The rule tests
#   are a new file under `crates/executor/tests/`, and the pinned nested
#   shapes and the no-shared-breaker check are in `tests/`.
# * 9169 -> 9078 (-91), combined 12209 -> 12118: every breaker finishes
#   in one pass. `ExternalSorter` keeps every row in arrival order, a run
#   cut is only its charges and `finish` does one stable sort, so the
#   loser-tree merge (`merge_order`), the batch of spilled runs, its run
#   boundaries and the merge's comparison-count unit test go. The ordered
#   aggregate fold is the tree's `GroupFold` (no first-seen positions),
#   and `advance_phase` and `complete_ok`'s copy of it become one
#   `end_phase`, without the blanket `finish_probe` pass; `staged_schemas`
#   refuses a build nothing probes (+10). No line moved into `tests/`.
# * 9078 -> 9471 (+393), combined 12118 -> 12511 (+393): the breakers
#   stop being the serial tail. An exact-merge `PartialAgg` splits into
#   16 hash partitions once it holds more than 4,096 groups and then
#   routes each row by the top bits of its key hash (`Part`, `split`,
#   the routing scratch); the merge absorbs partition by partition under
#   the stored hashes (`KeyTable::hashes` / `intern_hashed`,
#   `GroupFold::absorb` over a subset of groups); the groups take their
#   first-seen order in three linear passes (`first_seen_order`, which
#   replaces a `sort_by_key`) and are gathered straight into morsels.
#   The sorter radix-sorts `(prefix, row)` pairs and sorts runs of equal
#   prefixes on every key (`sort_order`, `radix_sort`; the prefix,
#   `ColumnVector::sort_prefix`, is 32 lines in `crates/types`, which
#   this script does not count). Of the +393, 52 are the degenerate-hash
#   unit test and about 105 are doc comments; the property tests are
#   under `crates/executor/tests/`. It bought -4.5 % on
#   `analytic_parallel`'s round (10 of 10 pairs, 9.4 ms against an 8.8 ms
#   parent IQR): `agg_group` -15 %, `sort_sel10` -24 % (CHANGES.md).
#
# COMBINED_CEILING ratchets `crates/{core,executor,planner}/src` together
# (13766 when it was added; 13457 after the one-morsel-claim change; 13189
# after Switch Scan became a trigger; 12972 after the closed-form model;
# 12924 after the resolve pass; 12801 after Index Scan became Mode 0;
# 12619 after the merge join became a hash join under a sort; 12523 after
# a spill became its charge, unchanged by the branch-free kernels; 12446
# after the planner's dead advisor and tipping-point code went; 12403
# after Sort Scan became a trigger; 12401 after the heap source became
# `FullTableScan`; 12314 after the one phase list; 12183 after the one
# hash-join build; 12209 after every breaker ended its own phase; 12118
# after every breaker finished in one pass; 12511 after the breakers
# stopped being the serial tail):
# code shared by core
# and executor can move between them, and only the sum shows that. The
# PR that added it moved Smooth Scan's region inspection onto the
# executor's page queue and deleted core's Tuple-ID cache bitmap, leaving
# the sum where it was.
set -eu
cd "$(dirname "$0")/.."
CEILING=9471
COMBINED_CEILING=12511
check() {
    echo "$1: $2 lines (ceiling $3)"
    if [ "$2" -gt "$3" ]; then
        echo "error: over the line budget by $(($2 - $3)) —" \
            "delete something, or raise $4 in ci/loc_budget.sh and say why" >&2
        exit 1
    fi
}
check "crates/executor/src + crates/planner/src" \
    "$(cat crates/executor/src/*.rs crates/planner/src/*.rs | wc -l)" "$CEILING" CEILING
check "crates/{core,executor,planner}/src" \
    "$(cat crates/core/src/*.rs crates/executor/src/*.rs crates/planner/src/*.rs | wc -l)" \
    "$COMBINED_CEILING" COMBINED_CEILING
