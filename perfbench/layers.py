"""Per-layer metrics from the spans that `tracer` records.

A traced pass is the set of span files written by the CLI commands of one
workload pass.  Every metric named here is reported on every workload, as
zero where the workload never reaches that layer.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# Span name -> the size-normalised statistic reported beside calls, total_s
# and self_s (total less the time of the spans it encloses).
FUNCTIONS = {
    "tgh.tau_inverse": "us_per_row",
    "tgh.log_density": "us_per_row",
    "loss.tukey_head_loss": "ms_per_call",
    "loss.gaussian_head_loss": "ms_per_call",
    "nn.network.Network.forward_train": "ms_per_call",
    "nn.network.Network.forward_eval": "us_per_row",
    "nn.network.Network.backward": "ms_per_call",
    "nn.optim.Adam.step": "ms_per_call",
    "nn.train.evaluate_mean_loss": "ms_per_call",
    "nn.train.train": "ms_per_call",
    "nn.persist.save_model": "ms_per_call",
    "nn.persist.load_model": "ms_per_call",
    "evaluate.residuals": "us_per_row",
    "evaluate.shortest_interval": "us_per_row",
    "evaluate.symmetric_interval": "us_per_row",
    "evaluate.density_curve": "us_per_row",
    "data.load_csv": "us_per_row",
    "data.write_csv": "us_per_cell",
    "synth.generate_gandh": "us_per_row",
    "synth.generate_student_t": "us_per_row",
}

CLI_LABELS = ("simulate", "train", "evaluate", "intervals_shortest",
              "intervals_symmetric", "density")

STEP_PARTS = {
    "forward": ("nn.network.Network.forward_train",),
    "loss": ("loss.tukey_head_loss", "loss.gaussian_head_loss"),
    "backward": ("nn.network.Network.backward",),
    "adam": ("nn.optim.Adam.step",),
}

# Kernel table: median ms per call of a function at a given size; "max"
# means the largest size the workload calls it with (its scoring size).
KERNELS = {
    "kernel.tau_inverse_512.ms": ("tgh.tau_inverse", 512),
    "kernel.tau_inverse_max.ms": ("tgh.tau_inverse", "max"),
    "kernel.log_density_max.ms": ("tgh.log_density", "max"),
    "kernel.forward_train_512.ms": ("nn.network.Network.forward_train", 512),
    "kernel.backward_512.ms": ("nn.network.Network.backward", 512),
    "kernel.adam_step.ms": ("nn.optim.Adam.step", None),
    "kernel.shortest_interval_max.ms": ("evaluate.shortest_interval", "max"),
    "kernel.load_csv_max.ms": ("data.load_csv", "max"),
    "kernel.write_csv_max.ms": ("data.write_csv", "max"),
}


def is_count(name: str) -> bool:
    """Whether a metric counts work, so it must repeat exactly between passes."""
    return (name.endswith(".calls") or name.endswith(".rows")
            or name.startswith("tgh.tau_evals_per_solve"))


def load_spans(paths) -> tuple[list[list], int]:
    """Spans of several trace files, with parent indices made global, and
    the number of tau calls they made."""
    spans: list[list] = []
    tau_calls = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        base = len(spans)
        for name, start, end, parent, size, taus in part["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1, size, taus])
        tau_calls += part["tau_calls"]
    return spans, tau_calls


def metrics(spans: list[list], tau_calls: int,
            cli_walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; cli_walls maps CLI_LABELS to seconds."""
    duration = [end - start for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]

    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    rows = defaultdict(int)
    per_call = defaultdict(list)  # name -> [(size, seconds)]
    for i, (name, _, _, _, size, _) in enumerate(spans):
        calls[name] += 1
        total[name] += duration[i]
        own[name] += duration[i] - child_time[i]
        rows[name] += size
        per_call[name].append((size, duration[i]))

    out: dict[str, float] = {}
    for name, stat in FUNCTIONS.items():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = own[name]
        if stat == "ms_per_call":
            value = 1e3 * total[name] / calls[name] if calls[name] else 0.0
        else:
            value = 1e6 * total[name] / rows[name] if rows[name] else 0.0
        out[f"{name}.{stat}"] = value

    solves = [s[5] for s in spans if s[0] == "tgh.tau_inverse"]
    out["tgh.tau.calls"] = tau_calls
    out["tgh.tau_evals_per_solve"] = sum(solves) / len(solves) if solves else 0.0
    out["tgh.tau_evals_per_solve_max"] = max(solves, default=0)
    out["tgh.tau_inverse_in_train.calls"] = sum(
        1 for s in spans if s[0] == "tgh.tau_inverse" and _inside(spans, s, "nn.train.train"))

    for label in CLI_LABELS:
        out[f"cli.{label}.s"] = cli_walls.get(label, 0.0)

    out.update(_step_breakdown(spans, duration))

    for key, (name, size) in KERNELS.items():
        samples = per_call[name]
        if size == "max" and samples:
            size = max(s for s, _ in samples)
        picked = [d for s, d in samples if size is None or s == size]
        out[key] = 1e3 * statistics.median(picked) if picked else 0.0
    largest = [s for s, _ in per_call["tgh.tau_inverse"]]
    out["kernel.tau_inverse_max.rows"] = max(largest, default=0)
    return out


def _inside(spans, span, ancestor: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def _step_breakdown(spans, duration) -> dict[str, float]:
    """Shares of a training step: forward, loss, backward, Adam and other.

    A step's time is the training loop's time less its per-epoch
    validation passes; "other" is what remains after the four parts
    (shuffling, batching, clipping, keeping the best state).
    """
    loops = {i for i, s in enumerate(spans) if s[0] == "nn.train.train"}
    part_time = dict.fromkeys(STEP_PARTS, 0.0)
    step_time = sum(duration[i] for i in loops)
    steps = 0
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent not in loops:
            continue
        if name == "nn.train.evaluate_mean_loss":
            step_time -= duration[i]
        steps += name == "nn.optim.Adam.step"
        for part, names in STEP_PARTS.items():
            if name in names:
                part_time[part] += duration[i]
    out = {"step.ms": 1e3 * step_time / steps if steps else 0.0}
    for part, seconds in part_time.items():
        out[f"step.{part}_share"] = seconds / step_time if step_time else 0.0
    other = step_time - sum(part_time.values())
    out["step.other_share"] = other / step_time if step_time else 0.0
    return out
