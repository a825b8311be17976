"""Versioned binary model format plus a human-readable JSON sidecar.

Layout (all integers and floats little-endian):

    bytes 0-3   magic "TGHN"
    bytes 4-7   uint32 format version (currently 1)
    bytes 8-11  uint32 byte length of the UTF-8 header JSON
    ...         header JSON: asdict of ModelHeader (loss kind, network spec,
                link/solver configs, columns, standardization, split rule)
    ...         float64 blob: the network's ``state`` vector, that is the
                parameters (per layer W row-major, b, and for batch-norm
                layers gamma, beta) followed by the running statistics
                (per batch-norm layer running_mean, running_var)

save_model additionally writes ``<path>.json`` with the same header,
pretty-printed, for inspection.  The writer is deterministic: identical
bundles produce identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from ..data import Standardization, write_json
from ..errors import ConfigError, DataError
from ..loss import LinkConfig, link
from ..tgh import InverseSolverConfig, TghParams
from .network import EVAL_CHUNK, Network, NetworkSpec
from .train import LOSS_KINDS

MAGIC = b"TGHN"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DataColumns:
    """The header's data section: input and target columns, standardization."""

    feature_columns: tuple[str, ...]
    late_columns: tuple[str, ...]
    target_column: str
    standardization: Standardization | None


@dataclass(frozen=True)
class ModelHeader:
    """The JSON header, written as asdict of this and read back by config.read,
    so every model saved or loaded passes the cross-section checks below."""

    format: int
    loss: str
    network: NetworkSpec
    link: LinkConfig
    solver: InverseSolverConfig
    data: DataColumns
    split_rule: dict | None = None

    def __post_init__(self):
        spec, data, st = self.network, self.data, self.data.standardization
        n = len(data.feature_columns)
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss: expected 'tukey' or 'gaussian', got {self.loss!r}")
        if spec.head_dim != LOSS_KINDS[self.loss]:
            raise ValueError(f"network.head_dim: {spec.head_dim} outputs for a {self.loss} head")
        if n != spec.input_dim:
            raise ValueError(f"data.feature_columns: {n} for a network of {spec.input_dim} inputs")
        if data.late_columns != data.feature_columns[n - spec.late_features:]:
            raise ValueError(f"data.late_columns: expected the last {spec.late_features} "
                             f"feature columns, got {list(data.late_columns)}")
        if st is not None and (st.columns != data.feature_columns or len(st.mean) != n
                               or len(st.scale) != n or min(st.scale) <= 0):
            raise ValueError("data.standardization: expected one mean and one positive "
                             "scale per feature column")


@dataclass
class ModelBundle:
    """Everything needed to score new data with a trained model."""

    network: Network
    loss_kind: str
    link: LinkConfig
    solver: InverseSolverConfig
    feature_columns: tuple[str, ...]
    late_columns: tuple[str, ...]
    target_column: str
    standardization: Standardization | None
    split_rule: dict | None = None

    def _raw_chunks(self, x: np.ndarray):
        """Eval-mode head outputs for raw (unstandardized) features, EVAL_CHUNK
        rows at a time: yields (rows, raw) with rows a slice of x.  Overflow
        is not warned about: link names the row of a non-finite output."""
        x = np.asarray(x, dtype=float)
        for start in range(0, len(x), EVAL_CHUNK):
            rows = slice(start, start + EVAL_CHUNK)
            chunk = x[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                if self.standardization is not None:
                    chunk = self.standardization.apply(chunk)
                raw = self.network.forward(chunk, train=False)
            yield rows, raw

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode head outputs for raw (unstandardized) features."""
        raw = np.empty((len(x), self.network.spec.head_dim))
        for rows, chunk in self._raw_chunks(x):
            raw[rows] = chunk
        return raw

    def predict_params(self, x: np.ndarray) -> TghParams:
        """Predicted distribution parameters as a TghParams of arrays.

        Both heads pass through the one link, so Gaussian models come back
        with g = h = 0.  The link runs chunk by chunk, so beyond the four
        returned arrays memory does not grow with the row count; a
        non-finite head raises NumericalError naming the row of x.
        """
        out = np.empty((4, len(x)))  # mu, sigma, g, h
        for rows, raw in self._raw_chunks(x):
            p = link(raw, self.link, rows.start)[0]
            out[:, rows] = p.mu, p.sigma, p.g, p.h
        return TghParams(*out)


def _header_dict(b: ModelBundle) -> dict:
    data = DataColumns(b.feature_columns, b.late_columns, b.target_column, b.standardization)
    return asdict(ModelHeader(FORMAT_VERSION, b.loss_kind, b.network.spec, b.link, b.solver,
                              data, b.split_rule))


def save_model(path, bundle: ModelBundle) -> None:
    """Write the binary model file and its JSON sidecar."""
    header = _header_dict(bundle)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(bundle.network.state.astype("<f8").tobytes())
    write_json(f"{path}.json", header)


def load_model(path) -> ModelBundle:
    """Read a model file written by save_model.

    A file that cannot be opened raises DataError; so does a damaged or
    truncated file, or one whose blob holds a non-finite value, naming the
    byte offset at which reading failed.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    if len(blob) < 12:
        raise DataError(f"{path}: truncated at byte {len(blob)}, inside the 12-byte preamble")
    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version {version}")
    offset = 12 + hlen
    if len(blob) < offset:
        raise DataError(f"{path}: truncated at byte {len(blob)}, inside the header "
                        f"at bytes 12-{offset}")
    try:
        bundle = _bundle_from_header(json.loads(blob[12:offset].decode("utf-8")))
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad header at byte 12: {exc!r}") from exc

    state = bundle.network.state
    if len(blob) - offset != state.nbytes:
        raise DataError(f"{path}: parameter blob at byte {offset} holds "
                        f"{len(blob) - offset} bytes, the header's network needs {state.nbytes}")
    state[...] = np.frombuffer(blob, "<f8", state.size, offset)
    bad = ~np.isfinite(state)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DataError(f"{path}: non-finite value {float(state[i])} "
                        f"at byte {offset + 8 * i} of the parameter blob")
    return bundle


def _bundle_from_header(obj) -> ModelBundle:
    """A ModelBundle whose network has the header's shape, not yet its weights."""
    from ..config import parse_split, read, split_to_json  # config imports nn

    h = read(ModelHeader, obj, "header")
    rule = h.split_rule
    return ModelBundle(
        Network(h.network, seed=0), h.loss, h.link, h.solver, **vars(h.data),
        split_rule=None if rule is None else split_to_json(parse_split(rule, "header.split_rule")),
    )
