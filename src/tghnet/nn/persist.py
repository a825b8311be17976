"""Versioned binary model format plus a human-readable JSON sidecar.

Layout (all integers and floats little-endian):

    bytes 0-3   magic "TGHN"
    bytes 4-7   uint32 format version (currently 1)
    bytes 8-11  uint32 byte length of the UTF-8 header JSON
    ...         header JSON (network spec, link/solver configs, loss kind,
                column metadata, standardization)
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

from ..errors import ConfigError, DataError
from ..loss import LinkConfig
from ..tgh import InverseSolverConfig
from .network import EVAL_CHUNK, LayerSpec, Network, NetworkSpec

MAGIC = b"TGHN"
FORMAT_VERSION = 1


@dataclass
class Standardization:
    """Per-feature affine transform fitted on the training split."""

    columns: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale


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
        rows at a time: yields (rows, raw) with rows a slice of x."""
        x = np.asarray(x, dtype=float)
        for start in range(0, len(x), EVAL_CHUNK):
            rows = slice(start, start + EVAL_CHUNK)
            chunk = x[rows]
            if self.standardization is not None:
                chunk = self.standardization.apply(chunk)
            yield rows, self.network.forward(chunk, train=False)

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode head outputs for raw (unstandardized) features."""
        raw = np.empty((len(x), self.network.spec.head_dim))
        for rows, chunk in self._raw_chunks(x):
            raw[rows] = chunk
        return raw

    def predict_params(self, x: np.ndarray):
        """Predicted distribution parameters as a TghParams of arrays.

        Gaussian models come back with g = h = 0 so that downstream
        density/interval/residual code treats both heads uniformly.  The
        link runs chunk by chunk, so beyond the four returned arrays memory
        does not grow with the row count.
        """
        from ..loss import link, link_gaussian
        from ..tgh import TghParams

        out = np.zeros((4, len(x)))  # mu, sigma, g, h
        for rows, raw in self._raw_chunks(x):
            if self.loss_kind == "tukey":
                p = link(raw, self.link)[0]
                out[:, rows] = p.mu, p.sigma, p.g, p.h
            else:
                out[:2, rows] = link_gaussian(raw, self.link)[:2]
        return TghParams(*out)


def _header_dict(bundle: ModelBundle) -> dict:
    spec = bundle.network.spec
    return {
        "format": FORMAT_VERSION,
        "loss": bundle.loss_kind,
        "network": {
            "layers": [
                {
                    "in_dim": layer.in_dim,
                    "out_dim": layer.out_dim,
                    "activation": layer.activation,
                    "batch_norm": layer.batch_norm,
                }
                for layer in spec.layers
            ],
            "late_features": spec.late_features,
            "head_dim": spec.head_dim,
        },
        "link": asdict(bundle.link),
        "solver": asdict(bundle.solver),
        "data": {
            "feature_columns": list(bundle.feature_columns),
            "late_columns": list(bundle.late_columns),
            "target_column": bundle.target_column,
            "standardization": None
            if bundle.standardization is None
            else {
                "columns": list(bundle.standardization.columns),
                "mean": [float(v) for v in bundle.standardization.mean],
                "scale": [float(v) for v in bundle.standardization.scale],
            },
        },
        "split_rule": bundle.split_rule,
    }


def save_model(path, bundle: ModelBundle) -> None:
    """Write the binary model file and its JSON sidecar."""
    header = json.dumps(_header_dict(bundle), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(bundle.network.state.astype("<f8").tobytes())
    with open(f"{path}.json", "w", encoding="utf-8") as fh:
        json.dump(_header_dict(bundle), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> ModelBundle:
    """Read a model file written by save_model.

    A damaged or truncated file, or one whose blob holds a non-finite
    value, raises DataError naming the byte offset at which reading failed.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
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


def _bundle_from_header(header: dict) -> ModelBundle:
    """A ModelBundle whose network has the header's shape, not yet its weights."""
    from ..config import parse_split, read, split_to_json  # config imports nn

    layers = tuple(
        LayerSpec(
            in_dim=d["in_dim"],
            out_dim=d["out_dim"],
            activation=d["activation"],
            batch_norm=d["batch_norm"],
        )
        for d in header["network"]["layers"]
    )
    spec = NetworkSpec(
        layers,
        late_features=header["network"]["late_features"],
        head_dim=header["network"]["head_dim"],
    )
    st = header["data"]["standardization"]
    standardization = None
    if st is not None:
        standardization = Standardization(
            columns=tuple(st["columns"]),
            mean=np.asarray(st["mean"], dtype=float),
            scale=np.asarray(st["scale"], dtype=float),
        )
    rule = header.get("split_rule")
    return ModelBundle(
        network=Network(spec, seed=0),
        loss_kind=header["loss"],
        link=read(LinkConfig, header["link"], "link"),
        solver=read(InverseSolverConfig, header["solver"], "solver"),
        feature_columns=tuple(header["data"]["feature_columns"]),
        late_columns=tuple(header["data"]["late_columns"]),
        target_column=header["data"]["target_column"],
        standardization=standardization,
        split_rule=None if rule is None else split_to_json(parse_split(rule, "split_rule")),
    )
