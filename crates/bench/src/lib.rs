//! Paper artefacts that are not training sweeps, and the recorded kernel
//! microbenches.
//!
//! Every accuracy sweep of the evaluation (Figs. 2, 3 and 5, the
//! Section IV-A communication claim, and the extension studies) is a
//! checked-in spec under `experiments/` run by `fedms exp run`. The
//! binaries here cover the rest:
//!
//! * `table2` — Table II, printed from the actual Table-II configuration;
//! * `fig4` — Figure 4's per-client label histograms;
//! * `theory` — Theorem 1 on convex quadratics;
//! * `lemma2` — Lemma 2's trimmed-mean error bound;
//! * `filterbench` / `nnbench` — the filter and compute-backend kernel
//!   microbenches behind `BENCH_filter.json` / `BENCH_nn.json` and their CI
//!   gates, built on [`perf`].
//!
//! The artefact binaries write provenance-stamped results under `results/`
//! through [`fedms_exp::save_json`].

pub mod perf;
