"""tghnet benchmark: one workload through the real CLI, checked and timed.

    python3 perfbench/run.py --workload train_tukey --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every CLI command runs as its own child
process (`perfbench/child.py`, which imports tghnet from this checkout's
`src/`) with TGH_THREADS=1, one at a time.  The workload's inputs are made
from --seed; set-up is repeated SETUP_REPEATS times and must give the same
bytes each time, then the workload's timed commands repeat for about
--seconds seconds and must give the same bytes each time.  With --trace 0
the end-to-end metrics are printed; with --trace 1 traced and untraced
passes alternate and the per-layer metrics of the traced passes are
printed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go to
`.perfbench_work/` and are removed at exit.

The host's speed drifts, so untraced runs scale every command's wall time
to a fixed host speed: `perfbench/reference.py` runs just before and just
after each command, and the command's seconds are multiplied by
REFERENCE_S over the mean of those two reference times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
# Nominal wall seconds of reference.py; scaled times are seconds at the host
# speed at which the reference takes this long.
REFERENCE_S = 0.6
COMMAND_TIMEOUT_S = 60.0
COVERAGE_TOLERANCE = 0.02

# The acceptance network and optimiser (hidden 4x64, batch 512, Adam at 3e-3
# with two learning-rate drops), on a shorter schedule so that several
# training runs fit in one benchmark run.
EPOCHS = 6
TRAIN_FRACTION = 0.8

TRAIN_ROWS = 40000          # training workloads: 32k training, 8k validation rows
SCORE_MODEL_ROWS = 20000    # score_large: rows its model is trained on
SCORE_ROWS = 62500          # score_large: rows simulated for scoring; 50k in its train split
DENSITY_POINTS = "0.1;0.3;0.5;0.7;0.9"
DENSITY_GRID = "-10:10:4001"


def train_split_rows(rows: int) -> int:
    """Rows the fraction split puts in training (the program rounds half up)."""
    return int(TRAIN_FRACTION * rows + 0.5)


def experiment_config(loss: str) -> dict:
    return {
        "seed": 0,
        "loss": loss,
        "data": {"target": "y", "features": ["x"]},
        "network": {"hidden": [64, 64, 64, 64]},
        "training": {"epochs": EPOCHS, "batch_size": 512},
        "optimizer": {"lr": 3e-3, "lr_drop_epochs": [4, 5]},
        "split": {"rule": "fraction", "fraction": TRAIN_FRACTION, "seed": 0},
    }


class CommandFailed(Exception):
    pass


@dataclass
class Command:
    label: str
    wall: float
    scaled: float  # wall seconds at the REFERENCE_S host speed
    rss_mib: float


@dataclass
class Runner:
    """Runs CLI commands and tallies operations and failures.

    With `scale`, the reference job runs before the first command and after
    every command, and a command's `scaled` time is its wall time at the
    nominal host speed; otherwise `scaled` is the wall time.
    """

    scale: bool
    attempted: int = 0
    failed: int = 0
    spans: list[Path] = field(default_factory=list)
    reference_walls: list[float] = field(default_factory=list)

    def reference(self, cwd: Path) -> float:
        returncode, wall, _ = self._wait([sys.executable, str(HERE / "reference.py")], cwd)
        if returncode != 0:
            raise CommandFailed(f"reference.py exited with {returncode}")
        self.reference_walls.append(wall)
        return wall

    def cli(self, label: str, args: list[str], cwd: Path, traced: bool = False) -> Command:
        if self.scale and not self.reference_walls:
            self.reference(cwd)
        cmd = [sys.executable, str(HERE / "child.py")]
        if traced:
            span_file = cwd / f"spans-{len(self.spans)}-{label}.json"
            self.spans.append(span_file)
            cmd += ["--trace-out", str(span_file)]
        cmd += ["--", *[str(a) for a in args]]
        self.attempted += 1
        returncode, wall, usage = self._wait(cmd, cwd)
        if returncode != 0:
            self.failed += 1
            tail = (cwd / "commands.log").read_text(errors="replace")[-2000:]
            raise CommandFailed(f"{label} exited with {returncode}: {' '.join(cmd)}\n{tail}")
        factor = 1.0
        if self.scale:
            before = self.reference_walls[-1]
            factor = REFERENCE_S / (0.5 * (before + self.reference(cwd)))
        return Command(label, wall, wall * factor, usage.ru_maxrss / 1024.0)

    @staticmethod
    def _wait(cmd: list[str], cwd: Path):
        """Runs one child to its end; returns its exit code, wall seconds and rusage."""
        env = dict(os.environ, TGH_THREADS="1")
        with open(cwd / "commands.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS, unlike RUSAGE_CHILDREN.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# workloads


@dataclass
class TrainWorkload:
    """Simulate, then per pass: train, evaluate and shortest intervals on val."""

    design: str
    loss: str

    def setup(self, s: Runner, d: Path, seed: int, traced: bool) -> list[Command]:
        _write_json(d / "config.json", experiment_config(self.loss))
        return [s.cli("simulate", ["simulate", "--design", self.design, "--n", TRAIN_ROWS,
                                   "--seed", seed, "--out", d / "data.csv"], d, traced)]

    def setup_outputs(self, d: Path) -> list[Path]:
        return [d / "data.csv", d / "data.csv.json"]

    def model(self, inp: Path, d: Path) -> Path:
        return d / "model.tghn"

    def timed(self, s: Runner, inp: Path, d: Path, traced: bool) -> list[Command]:
        model = self.model(inp, d)
        return [
            s.cli("train", ["train", "--config", inp / "config.json", "--data", inp / "data.csv",
                            "--out", model], d, traced),
            s.cli("evaluate", ["evaluate", "--model", model, "--data", inp / "data.csv",
                               "--split", "val", "--out", d / "eval"], d, traced),
            s.cli("intervals_shortest", ["intervals", "--model", model, "--data", inp / "data.csv",
                                         "--split", "val", "--variant", "shortest",
                                         "--out", d / "shortest.csv"], d, traced),
        ]

    def timed_outputs(self, d: Path) -> list[Path]:
        return [d / "model.tghn", d / "model.tghn.history.csv", d / "eval" / "report.csv",
                d / "eval" / "qq.csv", d / "eval" / "summary.json", d / "shortest.csv",
                d / "shortest.csv.summary.json"]

    def rows_per_s(self, cmds: dict[str, Command], d: Path) -> float:
        """Training rows times epochs per second of `tghnet train`."""
        return train_split_rows(TRAIN_ROWS) * EPOCHS / cmds["train"].scaled


class ScoreWorkload:
    """Set-up trains a Tukey model; each pass scores a large CSV with it."""

    def setup(self, s: Runner, d: Path, seed: int, traced: bool) -> list[Command]:
        _write_json(d / "config.json", experiment_config("tukey"))
        return [
            s.cli("simulate", ["simulate", "--design", "gandh", "--n", SCORE_MODEL_ROWS,
                               "--seed", seed, "--out", d / "train.csv"], d, traced),
            s.cli("train", ["train", "--config", d / "config.json", "--data", d / "train.csv",
                            "--out", d / "model.tghn"], d, traced),
            # a different seed, so the scored rows are not the training rows
            s.cli("simulate", ["simulate", "--design", "gandh", "--n", SCORE_ROWS,
                               "--seed", seed + 1_000_003, "--out", d / "score.csv"], d, traced),
        ]

    def setup_outputs(self, d: Path) -> list[Path]:
        return [d / "train.csv", d / "model.tghn", d / "model.tghn.history.csv", d / "score.csv"]

    def model(self, inp: Path, d: Path) -> Path:
        return inp / "model.tghn"

    def timed(self, s: Runner, inp: Path, d: Path, traced: bool) -> list[Command]:
        model, data = self.model(inp, d), inp / "score.csv"
        common = ["--model", model, "--data", data, "--split", "train"]
        return [
            s.cli("evaluate", ["evaluate", *common, "--out", d / "eval"], d, traced),
            s.cli("intervals_shortest", ["intervals", *common, "--variant", "shortest",
                                         "--out", d / "shortest.csv"], d, traced),
            s.cli("intervals_symmetric", ["intervals", *common, "--variant", "symmetric",
                                          "--out", d / "symmetric.csv"], d, traced),
            s.cli("density", ["density", "--model", model, "--features", DENSITY_POINTS,
                              f"--y-grid={DENSITY_GRID}", "--out", d / "curves.csv"], d, traced),
        ]

    def timed_outputs(self, d: Path) -> list[Path]:
        return [d / "eval" / "report.csv", d / "eval" / "qq.csv", d / "eval" / "summary.json",
                d / "shortest.csv", d / "shortest.csv.summary.json", d / "symmetric.csv",
                d / "symmetric.csv.summary.json", d / "curves.csv"]

    def rows_per_s(self, cmds: dict[str, Command], d: Path) -> float:
        """Rows scored per second of the evaluate and intervals commands."""
        rows = checks.read_json(d / "eval" / "summary.json")["n"]
        scored = (cmds["evaluate"].scaled + cmds["intervals_shortest"].scaled
                  + cmds["intervals_symmetric"].scaled)
        return 3 * rows / scored


WORKLOADS = {
    "train_tukey": TrainWorkload("gandh", "tukey"),
    "train_gaussian": TrainWorkload("student_t", "gaussian"),
    "score_large": ScoreWorkload(),
}


# --------------------------------------------------------------------------
# output checks


def check_pass_outputs(s: Runner, wl, inp: Path, d: Path) -> float:
    """Checks on one pass's files; returns the shortest intervals' coverage gap."""
    bad = checks.report_round_trip(d / "eval" / "report.csv")
    s.check(not bad, "mu + sigma*tau(z_hat) reproduces y in report.csv: " + "; ".join(bad[:3]))

    summary = checks.read_json(d / "shortest.csv.summary.json")
    cov = checks.coverage(d / "shortest.csv")
    s.check(cov == summary["coverage"],
            f"shortest-interval coverage {cov} disagrees with its summary {summary['coverage']}")
    gap = abs(cov - (1.0 - summary["alpha"]))
    s.check(gap <= COVERAGE_TOLERANCE, f"shortest-interval coverage gap {gap} > {COVERAGE_TOLERANCE}")

    if (d / "symmetric.csv").exists():
        bad = checks.shortest_not_longer(d / "shortest.csv", d / "symmetric.csv")
        s.check(not bad, "shortest interval no longer than symmetric: " + "; ".join(bad[:3]))
    if (d / "curves.csv").exists():
        masses = checks.density_mass(d / "curves.csv")
        s.check(all(0.9 <= m <= 1.0 + 1e-6 for m in masses),
                f"density curves carry mass {masses}, expected within [0.9, 1]")
    return gap


def end_to_end(wl, d: Path, cmds: list[Command]) -> dict[str, float]:
    return {
        "wall_s": sum(c.scaled for c in cmds),
        "unscaled_wall_s": sum(c.wall for c in cmds),
        "rows_per_s": wl.rows_per_s({c.label: c for c in cmds}, d),
        "peak_rss_mib": max(c.rss_mib for c in cmds),
        "val_nll": checks.read_json(d / "eval" / "summary.json")["mean_nll"],
        "interval_len": checks.read_json(d / "shortest.csv.summary.json")["mean_length"],
    }


# --------------------------------------------------------------------------
# provenance


_PROBE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}))
"""


def provenance(workload: str, seed: int) -> dict:
    sha = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # only this checkout's own commit, not that of a repository around it
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    probe = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                           timeout=60, env=dict(os.environ, TGH_THREADS="1"))
    versions = (json.loads(probe.stdout) if probe.returncode == 0
                else {"probe_error": probe.stderr[-300:]})
    sources = sorted(SRC.rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": checks.digest_many(SRC, sources),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "TGH_THREADS": "1",
        **versions,
    }


# --------------------------------------------------------------------------
# running a workload


def _median_dict(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run(s: Runner, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, then time passes for about `seconds`; returns the metrics.

    The first set-up makes the inputs.  The other repeats run between
    passes, outside the timed budget, so that `setup_s` samples the machine
    over the whole run as the passes do; each must write the same bytes.
    """
    wl = WORKLOADS[workload]
    setup_walls: list[float] = []
    setup_cmds: list[Command] = []

    def set_up() -> dict[str, str]:
        d = work / f"setup{len(setup_walls)}"
        d.mkdir()
        cmds = wl.setup(s, d, seed, trace)
        setup_cmds.extend(cmds)
        setup_walls.append(sum(c.scaled for c in cmds))
        digest = {p.name: checks.digest(p) for p in wl.setup_outputs(d)}
        if len(setup_walls) > 1:
            s.check(digest == first_setup, f"set-up {d.name} wrote different bytes from setup0")
            shutil.rmtree(d)
        return digest

    first_setup = set_up()
    inp = work / "setup0"
    setup_spans = list(s.spans)
    repeats = 1 if trace else SETUP_REPEATS

    # timed passes; with --trace 1, untraced and traced passes alternate
    results, traced_results, pass_walls = [], [], []
    reference = None
    coverage_gap = None
    t0 = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        d = work / f"pass{i}"
        d.mkdir()
        pass_start = time.perf_counter()
        first_span = len(s.spans)
        cmds = wl.timed(s, inp, d, traced)
        pass_walls.append(time.perf_counter() - pass_start)
        digest = {str(p.relative_to(d)): checks.digest(p) for p in wl.timed_outputs(d)}
        if reference is None:
            reference = digest
            coverage_gap = check_pass_outputs(s, wl, inp, d)
        else:
            s.check(digest == reference, f"pass {i} wrote different bytes from pass 0")
        metrics = end_to_end(wl, d, cmds)
        if traced:
            spans, taus = layers.load_spans(setup_spans + s.spans[first_span:])
            walls: dict[str, float] = {}
            for c in setup_cmds + cmds:
                walls[c.label] = walls.get(c.label, 0.0) + c.wall
            per_layer = layers.metrics(spans, taus, walls)
            per_layer["trace.wall_s"] = metrics["wall_s"]
            traced_results.append(per_layer)
        else:
            results.append(metrics)
        shutil.rmtree(d)
        i += 1
        if len(setup_walls) < repeats:
            paused = time.perf_counter()
            set_up()
            t0 += time.perf_counter() - paused
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(pass_walls) > seconds and (not trace or i % 2 == 0):
            break
    while len(setup_walls) < repeats:
        set_up()

    if not trace:
        out = _median_dict(results)
        out["setup_s"] = statistics.median(setup_walls)
        out["passes"] = len(results)
        return out

    for name in traced_results[0]:
        if layers.is_count(name):
            s.check(all(r[name] == traced_results[0][name] for r in traced_results),
                    f"count {name} differs between traced passes")
    out = _median_dict(traced_results)
    out["trace.overhead_s"] = out.pop("trace.wall_s") - statistics.median(
        r["wall_s"] for r in results)
    out["evaluate.shortest_interval.coverage_gap"] = coverage_gap
    out["passes"] = len(traced_results)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "tghnet" / "cli.py").is_file():
        print(f"no tghnet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    prov = provenance(args.workload, args.seed)
    print(f"# tghnet benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    s = Runner(scale=not args.trace)
    try:
        values = run(s, args.workload, args.seed, args.seconds, bool(args.trace), work)
    except CommandFailed as exc:
        print(f"command failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": s.attempted, "failed": s.failed,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"passes {values.pop('passes')}; error_rate {s.failed}/{s.attempted} = "
          f"{s.failed / s.attempted:g}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']}")
    if args.trace:
        print(f"{'tracing overhead (traced - untraced wall)':<44} "
              f"{values['trace.overhead_s']:>14.6g} s")
    else:
        print(f"{'wall_s before scaling':<44} {values['unscaled_wall_s']:>14.6g} s")
        print(f"{'reference.py wall (median)':<44} "
              f"{statistics.median(s.reference_walls):>14.6g} s (nominal {REFERENCE_S:g} s)")
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0 if s.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
