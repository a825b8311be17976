"""In-memory span recorder for one tghnet CLI process.

`install` replaces the package's public functions with timing wrappers at
the places where their names are looked up at call time, so nothing under
`src/` changes.  Each span is `[name, start, end, parent, size, tau_calls]`:
`parent` is the index of the enclosing span (-1 at top level), `size` the
rows (or cells) the call worked on, and `tau_calls` how many forward
transforms ran directly inside it.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.tau_calls = 0

    def span(self, name, fn, size=None):
        """Wrap fn so each call records a span; name may be a callable of the args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, self._open[-1] if self._open else -1, 0, 0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if size is not None:
                record[4] = int(size(args, kwargs, result))
            return result

        return wrapper

    def count_tau(self, fn):
        """Wrap tau so each call is counted against the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tau_calls += 1
            if self._open:
                self.spans[self._open[-1]][5] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "tau_calls": self.tau_calls}, fh)


def _first_size(args, kwargs, result):
    return np.size(args[0])


def _params_rows(args, kwargs, result):
    return np.size(args[0].mu)


def _batch_rows(args, kwargs, result):
    return len(args[1])


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "nn.network.Network.forward_train" if train else "nn.network.Network.forward_eval"


def install(rec: Recorder) -> None:
    """Wrap the layers the benchmark reports on; call before the CLI runs."""
    import tghnet.nn
    from tghnet import data, evaluate, synth, tgh
    from tghnet.nn import network, optim, persist

    # `tghnet.nn.train` is the re-exported function, so reach the module here.
    nn_train = sys.modules["tghnet.nn.train"]

    tgh.tau_inverse = rec.span("tgh.tau_inverse", tgh.tau_inverse, _first_size)
    tgh.log_density = rec.span("tgh.log_density", tgh.log_density, _first_size)
    counted_tau = rec.count_tau(tgh.tau)
    tgh.tau = counted_tau
    synth.tau = counted_tau

    # nn.train from-imports the head losses, so wrap them there.
    nn_train.tukey_head_loss = rec.span(
        "loss.tukey_head_loss", nn_train.tukey_head_loss, _first_size)
    nn_train.gaussian_head_loss = rec.span(
        "loss.gaussian_head_loss", nn_train.gaussian_head_loss, _first_size)
    nn_train.evaluate_mean_loss = rec.span(
        "nn.train.evaluate_mean_loss", nn_train.evaluate_mean_loss,
        lambda a, k, r: len(a[2]))
    tghnet.nn.train = rec.span(
        "nn.train.train", nn_train.train, lambda a, k, r: len(a[3]))

    network.Network.forward = rec.span(_forward_name, network.Network.forward, _batch_rows)
    network.Network.backward = rec.span(
        "nn.network.Network.backward", network.Network.backward, _batch_rows)
    optim.Adam.step = rec.span("nn.optim.Adam.step", optim.Adam.step)

    # The CLI imports these from tghnet.nn inside each command.
    tghnet.nn.save_model = rec.span("nn.persist.save_model", persist.save_model)
    tghnet.nn.load_model = rec.span("nn.persist.load_model", persist.load_model)

    evaluate.residuals = rec.span("evaluate.residuals", evaluate.residuals, _first_size)
    evaluate.shortest_interval = rec.span(
        "evaluate.shortest_interval", evaluate.shortest_interval, _params_rows)
    evaluate.symmetric_interval = rec.span(
        "evaluate.symmetric_interval", evaluate.symmetric_interval, _params_rows)
    evaluate.density_curve = rec.span(
        "evaluate.density_curve", evaluate.density_curve, lambda a, k, r: np.size(a[1]))

    data.load_csv = rec.span("data.load_csv", data.load_csv, lambda a, k, r: len(r))

    def cells(args, kwargs, result):
        columns = list(args[1].values())
        return len(columns) * len(columns[0]) if columns else 0

    # evaluate from-imports write_csv at import time; the CLI imports it per call.
    write_csv = rec.span("data.write_csv", data.write_csv, cells)
    data.write_csv = write_csv
    evaluate.write_csv = write_csv

    synth.generate_gandh = rec.span(
        "synth.generate_gandh", synth.generate_gandh, lambda a, k, r: a[0])
    synth.generate_student_t = rec.span(
        "synth.generate_student_t", synth.generate_student_t, lambda a, k, r: a[0])
