"""EXPERIMENTS.md generation.

Every benchmark persists its rendered table to
``benchmarks/results/<experiment>.txt`` including two machine-parseable
footer lines::

    measured: key=value, key=value, ...
    paper:    key=value, ...

:func:`build_experiments_md` reads those files and produces the
paper-vs-measured record (EXPERIMENTS.md) — so the document is always
regenerated from actual runs, never hand-copied.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Tuple

#: Paper artifact + one-line description per experiment id, in paper order.
EXPERIMENT_INDEX: List[Tuple[str, str, str]] = [
    ("fig01", "Figure 1", "Replication ratio, L1 miss rate, 16x-L1 speedup per app"),
    ("fig02", "Figure 2", "Baseline L1 data-port & reply-link utilization"),
    ("sec2c", "Section II-A", "Hypothetical single shared L1"),
    ("tab1", "Table I", "NoC shapes + peak L1 bandwidth of PrY"),
    ("fig04", "Figure 4", "Private DC-L1 aggregation sweep (+ perfect L1s)"),
    ("fig06", "Figure 6", "NoC area / static power of PrY"),
    ("fig08", "Figure 8", "Sh40 on replication-sensitive apps"),
    ("fig09", "Figure 9", "Sh40 on replication-insensitive apps"),
    ("fig11", "Figure 11", "Cluster-count sweep C1..C40"),
    ("fig12", "Figure 12", "NoC area / static power vs cluster count"),
    ("fig13", "Figure 13", "Poor performers + crossbar max frequencies"),
    ("fig14", "Figure 14", "Overall IPC of all proposed designs"),
    ("fig15", "Figure 15", "Speedup S-curves"),
    ("fig16", "Figure 16", "Miss-rate reduction + replica counts"),
    ("fig17", "Figure 17", "DC-L1 data-port utilization"),
    ("fig18", "Figure 18", "NoC power breakdown + area accounting"),
    ("fig19", "Figure 19", "CDXBar comparison + L1-latency sweep"),
    ("sens-cta", "Sec VIII-A", "CTA-scheduler sensitivity"),
    ("sens-size", "Sec VIII-A", "120-core system scaling"),
    ("sens-base", "Sec VIII-A", "Boosted baselines"),
    ("latency", "Sec VIII", "Latency analysis (round trips)"),
    ("ablations", "(extension)", "Design-choice ablations"),
    ("ext-bypass", "(extension)", "Streaming-bypass fills composed with DC-L1s"),
    ("ext-capacity", "(extension)", "Larger DC-L1s / boosted NoC#2"),
    ("ext-latency-dist", "(extension)", "Load-latency percentiles"),
    ("ext-queues", "(extension)", "Finite DC-L1 node queue depth"),
    ("robustness", "(extension)", "Trace-seed robustness"),
]

_PREAMBLE = """# EXPERIMENTS — paper vs measured

Auto-generated from the persisted benchmark outputs
(`benchmarks/results/*.txt`) by `repro.experiments.reporting`; regenerate
with `python -m repro.experiments.reporting` after
`pytest benchmarks/ --benchmark-only`.

All simulations use the calibrated workload scale (`REPRO_SCALE=1.0`).
We reproduce *shapes* — who wins, rough factors, crossovers — not the
authors' absolute numbers: the substrate here is a reservation-based
timing model over synthetic traces, not GPGPU-Sim over CUDA binaries
(see DESIGN.md for the substitution table).  `paper` cells are blank for
quantities the paper reports only qualitatively.

Known deviations (stable across runs, all direction-preserving):

* **sec2c / fig08 magnitudes** — our single-L1 / Sh40 speedups top out
  lower than the paper's 2.9x because our baseline is bounded by DRAM
  bandwidth a bit earlier than the authors' testbed.
* **S-Reduction / P-SYRK under Sh40+C10** — the paper reports these two
  as near-neutral or negative (their footprints exceed a cluster's
  reach); we reproduce the Sh40 >> Sh40+C10 ordering but both stay mildly
  positive here.
* **fig16 baseline replica counts** — higher than the paper's 7.7
  (our shared footprints are small relative to 80 caches, so more copies
  fit); the Pr40 > Boost > Sh40 ordering and the ~2.8 Boost value match.
* **sens-cta magnitude** — the distributed scheduler cuts the benefit
  (direction reproduced) but by less than the paper's 75%->46%; our
  inter-CTA locality knob is conservative to avoid disturbing Figure 1.
* **fig09 R-SC** — improves *relative to the poor performers* but does
  not exceed 1.0 outright as in the paper.
"""


def parse_summary_lines(text: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Extract the measured/paper key=value footers from a results file."""
    measured: Dict[str, float] = {}
    paper: Dict[str, float] = {}
    for line in text.splitlines():
        stripped = line.strip()
        for prefix, target in (("measured:", measured), ("paper:", paper)):
            if stripped.startswith(prefix):
                body = stripped[len(prefix):]
                for item in body.split(","):
                    if "=" not in item:
                        continue
                    key, _, value = item.partition("=")
                    try:
                        target[key.strip()] = float(value)
                    except ValueError:
                        continue
    return measured, paper


def _experiment_section(exp_id: str, artifact: str, description: str,
                        text: Optional[str]) -> str:
    lines = [f"## {artifact} — {description}", ""]
    if text is None:
        lines.append("*(no benchmark output found — run the benches first)*")
        lines.append("")
        return "\n".join(lines)
    measured, paper = parse_summary_lines(text)
    if not measured:
        lines.append("*(no summary footer in the results file)*")
        lines.append("")
        return "\n".join(lines)
    lines.append("| metric | paper | measured |")
    lines.append("|---|---|---|")
    for key, value in measured.items():
        pv = paper.get(key)
        pcell = f"{pv:.3f}" if pv is not None else ""
        lines.append(f"| {key} | {pcell} | {value:.3f} |")
    extra_paper = [k for k in paper if k not in measured]
    for key in extra_paper:
        lines.append(f"| {key} | {paper[key]:.3f} | |")
    lines.append("")
    lines.append(f"Full rows: `benchmarks/results/{exp_id}.txt`")
    lines.append("")
    return "\n".join(lines)


def _headline(results_dir: pathlib.Path) -> str:
    """The paper's abstract-level claims, paper-vs-measured."""
    rows = []

    def grab(exp_id: str, key: str):
        path = results_dir / f"{exp_id}.txt"
        if not path.exists():
            return None, None
        measured, paper = parse_summary_lines(path.read_text())
        return measured.get(key), paper.get(key)

    claims = [
        ("fig14", "sensitive_Sh40+C10+Boost",
         "IPC on replication-sensitive apps (Sh40+C10+Boost)"),
        ("fig14", "insensitive_Sh40+C10+Boost",
         "IPC on replication-insensitive apps"),
        ("fig14", "all_Sh40+C10+Boost", "IPC over all 28 apps"),
        ("fig12", "c10_area", "NoC area (Sh40+C10)"),
        ("fig18", "energy_norm", "NoC energy"),
        ("fig16", "Sh40+C10+Boost_replicas", "replicas per line (vs Sh40's 1)"),
    ]
    for exp_id, key, label in claims:
        m, p = grab(exp_id, key)
        if m is None:
            continue
        pcell = f"{p:.2f}" if p is not None else ""
        rows.append(f"| {label} | {pcell} | {m:.2f} |")
    if not rows:
        return ""
    return "\n".join(
        ["## Headline", "", "| claim | paper | measured |", "|---|---|---|"]
        + rows + [""]
    )


def build_experiments_md(results_dir) -> str:
    """Assemble the EXPERIMENTS.md document from a results directory."""
    results_dir = pathlib.Path(results_dir)
    sections = [_PREAMBLE, _headline(results_dir)]
    for exp_id, artifact, description in EXPERIMENT_INDEX:
        path = results_dir / f"{exp_id}.txt"
        text = path.read_text() if path.exists() else None
        sections.append(_experiment_section(exp_id, artifact, description, text))
    return "\n".join(s for s in sections if s)


def main() -> int:  # pragma: no cover - thin CLI
    root = pathlib.Path(__file__).resolve().parents[3]
    results = root / "benchmarks" / "results"
    out = root / "EXPERIMENTS.md"
    out.write_text(build_experiments_md(results))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
