"""Versioned binary model format plus a human-readable JSON sidecar.

Layout (all integers and floats little-endian):

    bytes 0-3   magic "TGHN"
    bytes 4-7   uint32 format version (currently 3)
    bytes 8-11  uint32 byte length of the UTF-8 header JSON
    ...         header JSON: asdict of ModelHeader (loss kind, the config's
                network object, link/solver configs, columns,
                standardization, split rule)
    ...         float64 blob: the network's ``state`` vector, that is the
                parameters (per layer W row-major, then b, or gamma, beta
                for a batch-norm layer) followed by the running statistics
                (per batch-norm layer running_mean, running_var)

A ModelBundle is its ModelHeader plus a Network of the header's shape,
ModelHeader.spec.  save_model writes asdict of the header, and additionally
``<path>.json`` with the same header, pretty-printed, for inspection;
load_model keeps the header that config.read returns.  The writer is
deterministic: identical bundles produce identical bytes.  Format 2
also held a b after each batch-norm W; load_model stores running_mean - b
instead, and fl(rm - b) = -fl(b - rm) keeps its scores.  A format-1 file
is refused as an unsupported version.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from ..data import ByColumnSplit, FractionSplit, Standardization, write_json
from ..errors import ConfigError, DataError, NumericalError
from ..loss import LOSS_KINDS, LinkConfig, link
from ..tgh import InverseSolverConfig, TghParams, by_blocks
from .network import EVAL_CHUNK, Network, NetworkConfig, NetworkSpec

MAGIC = b"TGHN"
FORMAT_VERSION = 3


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

    loss: str
    network: NetworkConfig
    link: LinkConfig
    solver: InverseSolverConfig
    data: DataColumns
    split_rule: FractionSplit | ByColumnSplit | None = None
    format: int = field(default=FORMAT_VERSION, init=False)

    def __post_init__(self):
        data, st = self.data, self.data.standardization
        n, late = len(data.feature_columns), len(data.late_columns)
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss: expected 'tukey' or 'gaussian', got {self.loss!r}")
        if late >= n or data.late_columns != data.feature_columns[n - late:]:
            raise ValueError(f"data.late_columns: expected the last feature columns, leaving "
                             f"at least one, got {list(data.late_columns)}")
        if st is not None and (st.columns != data.feature_columns or len(st.mean) != n
                               or len(st.scale) != n or min(st.scale) <= 0):
            raise ValueError("data.standardization: expected one mean and one positive "
                             "scale per feature column")

    @property
    def spec(self) -> NetworkSpec:
        """The network's shape: the one place it is derived from a header or a config."""
        return NetworkSpec(len(self.data.feature_columns), self.network.hidden,
                           LOSS_KINDS[self.loss], len(self.data.late_columns),
                           self.network.batch_norm)


@dataclass
class ModelBundle:
    """Everything needed to score new data with a trained model: the header
    and a network of the header's shape."""

    header: ModelHeader
    network: Network

    def predict_params(self, x: np.ndarray) -> TghParams:
        """Predicted distribution parameters for raw (unstandardized)
        features, as a TghParams of arrays.

        Both heads pass through the one link, so Gaussian models come back
        with g = h = 0.  The eval-mode forward and the link run by blocks
        of EVAL_CHUNK rows, so beyond the four returned arrays memory does
        not grow with the row count.  A non-finite head raises
        NumericalError at its row of x.
        """
        st = self.header.data.standardization

        def params(x):
            # overflow is not warned about: link names the row
            with np.errstate(over="ignore", invalid="ignore"):
                raw = self.network.forward(x if st is None else st.apply(x), train=False)
            p = link(raw, self.header.link)[0]
            return p.mu, p.sigma, p.g, p.h

        return TghParams(*by_blocks(params, EVAL_CHUNK, np.asarray(x, dtype=float)))


def _check_finite(path, blob: np.ndarray, offset: int, error) -> None:
    """Raise error at the byte of the first non-finite value of a blob at offset."""
    bad = np.flatnonzero(~np.isfinite(blob))
    if len(bad):
        raise error(f"{path}: non-finite value {float(blob[bad[0]])} "
                    f"at byte {offset + 8 * int(bad[0])} of the parameter blob")


def save_model(path, bundle: ModelBundle) -> None:
    """Write the model file and its JSON sidecar.  A non-finite header number
    or state value (NumericalError, at its byte) raises before any is opened."""
    header = asdict(bundle.header)
    encoded = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    _check_finite(path, bundle.network.state, 12 + len(encoded), NumericalError)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(bundle.network.state.astype("<f8").tobytes())
    write_json(f"{path}.json", header)


def load_model(path) -> ModelBundle:
    """Read a model file written by save_model, of this format or of format 2.

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
    if version not in (2, FORMAT_VERSION):
        raise DataError(f"{path}: unsupported model format version {version}")
    offset = 12 + hlen
    if len(blob) < offset:
        raise DataError(f"{path}: truncated at byte {len(blob)}, inside the header "
                        f"at bytes 12-{offset}")
    from ..config import read  # config imports nn

    try:
        header = read(ModelHeader, json.loads(blob[12:offset].decode("utf-8")), "header")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad header at byte 12: {exc!r}") from exc

    # checked before the network is built: a header asks for no more than its file holds
    spec = header.spec
    size = spec.state_size + (sum(spec.hidden) if spec.batch_norm and version < 3 else 0)
    if len(blob) - offset != 8 * size:
        raise DataError(f"{path}: parameter blob at byte {offset} holds "
                        f"{len(blob) - offset} bytes, the header's network needs {8 * size}")
    stored = np.frombuffer(blob, "<f8", size, offset)
    _check_finite(path, stored, offset, DataError)
    net = Network(spec, seed=None)  # every value is read below: no draw
    if size == spec.state_size:
        net.state[...] = stored
    else:  # format 2: a b after each batch-norm W, folded into running_mean
        at, b_at = 0, []
        for w, *_ in net.layers[:-1]:
            b_at.append(at + w.size + np.arange(w.shape[1]))
            at += w.size + 3 * w.shape[1]
        net.state[...] = np.delete(stored, np.concatenate(b_at))
        with np.errstate(over="ignore"):  # an infinite running_mean scores as before
            for (*_, bn), b in zip(net.layers, b_at):
                bn[2][...] -= stored[b]
    return ModelBundle(header, net)
