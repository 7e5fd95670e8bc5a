// Package repro reproduces "A Hardware Evaluation of Cache Partitioning
// to Improve Utilization and Energy-Efficiency while Preserving
// Responsiveness" (Cook et al., ISCA 2013) as a pure-Go simulation
// study. See README.md for the tour, DESIGN.md for the architecture and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
//
// The root package holds only the benchmark harness (bench_test.go),
// one benchmark per paper table and figure; the library lives under
// internal/ and the public entry point is internal/core.
//
// Experiments execute through the concurrent engine in internal/sched:
// drivers submit each figure's full sweep as one batch and read every
// table cell from the results it returns, a worker pool
// (sched.Options.Parallelism, default GOMAXPROCS; the CLI's -parallel
// flag) fans the independent simulations across CPUs, and singleflight
// memoization runs each distinct configuration exactly once. Because
// every simulation derives its randomness solely from its own spec,
// parallel runs render byte-identical tables to serial runs.
//
// Runs are described declaratively: internal/scenario compiles N-job
// scenario files (roles, placement, partitioning, metrics; see
// examples/scenarios/ and `cachepart scenario`) down to the engine's
// general MixSpec, of which the paper's single/pair/multi shapes are
// the canonical degenerate cases.
//
// LLC management is a pluggable policy layer: internal/partition owns
// a registry of partition.Policy implementations (shared, fair,
// biased, explicit, the §6 dynamic controller, and a UCP-style
// utility policy fed by shadow utility monitors), every layer prices
// a policy on a job mix through one partition.Plan, and online-policy
// runs are memoized under keys carrying the policy identity and
// parameters (`cachepart policies`, DESIGN.md §7).
//
// Above the run layer, internal/fleet simulates the paper's datacenter
// argument directly: N machines under seeded open-loop load
// (internal/loadgen), compared across consolidation policies with
// p50/p95/p99 request slowdown, machines used, utilization, and energy
// per policy (`cachepart fleet`, the fleet-*.json examples, DESIGN.md
// §5).
package repro
