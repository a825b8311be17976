"""Output checks on the files the tghnet CLI writes (stdlib only)."""

from __future__ import annotations

import csv
import hashlib
import json
import math

# tghnet.tgh switches to the g -> 0 limit of (exp(g*z) - 1)/g below this |g|;
# the oracle follows the same documented convention.
SMALL_G = 1e-5
ROUND_TRIP_SAMPLE = 2000  # report.csv rows checked per pass
# Bracket width (z units) at which the seed's bisection stops.  The round trip
# is held to this fixed width, so a solver that stops earlier fails the check.
ROUND_TRIP_Z_TOLERANCE = 1e-12


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_columns(path, names, every: int = 1) -> dict[str, list[float]]:
    """Named float columns of a CSV, keeping every `every`-th data row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pos = [header.index(n) for n in names]
        out = {n: [] for n in names}
        for i, row in enumerate(reader):
            if i % every == 0:
                for n, p in zip(names, pos):
                    out[n].append(float(row[p]))
    return out


def _tau_and_prime(z, g, h):
    spread = math.exp(0.5 * h * z * z)
    if abs(g) < SMALL_G:
        return z * spread, (1.0 + h * z * z) * spread
    scaled = math.expm1(g * z) / g
    return scaled * spread, (math.exp(g * z) + h * z * scaled) * spread


def report_round_trip(report_csv) -> list[str]:
    """Rows of report.csv where mu + sigma * tau(z_hat) misses y.

    z_hat must lie within ROUND_TRIP_Z_TOLERANCE of the root, so the allowed
    miss is sigma * tau'(z_hat) * ROUND_TRIP_Z_TOLERANCE plus rounding.
    """
    with open(report_csv, encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1
    cols = read_columns(report_csv, ("y", "mu", "sigma", "g", "h", "z_hat"),
                        every=max(1, n_rows // ROUND_TRIP_SAMPLE))
    bad = []
    for i, (y, mu, sigma, g, h, z) in enumerate(zip(*cols.values())):
        t, tp = _tau_and_prime(z, g, h)
        fitted = mu + sigma * t
        allowed = (sigma * tp * ROUND_TRIP_Z_TOLERANCE
                   + 1e-12 * (abs(y) + abs(mu) + abs(sigma * t)))
        if not abs(fitted - y) <= allowed:
            bad.append(f"sample {i}: y={y!r} but mu + sigma*tau(z_hat)={fitted!r}")
    return bad


def shortest_not_longer(shortest_csv, symmetric_csv) -> list[str]:
    """Rows whose shortest interval is longer than the symmetric one."""
    names = ("y", "lower", "upper")
    s = read_columns(shortest_csv, names)
    c = read_columns(symmetric_csv, names)
    if s["y"] != c["y"]:
        return ["the two interval files list different targets"]
    bad = []
    for i, (lo_s, hi_s, lo_c, hi_c) in enumerate(
            zip(s["lower"], s["upper"], c["lower"], c["upper"])):
        if not hi_s - lo_s <= hi_c - lo_c:
            bad.append(f"row {i}: shortest {hi_s - lo_s!r} > symmetric {hi_c - lo_c!r}")
    return bad


def coverage(intervals_csv) -> float:
    cols = read_columns(intervals_csv, ("y", "lower", "upper"))
    inside = sum(lo <= y <= hi for y, lo, hi in zip(cols["y"], cols["lower"], cols["upper"]))
    return inside / len(cols["y"])


def density_mass(curves_csv) -> list[float]:
    """Trapezoid mass of each density curve over its grid."""
    cols = read_columns(curves_csv, ("point", "y", "density"))
    curves: dict[float, list[tuple[float, float]]] = {}
    for p, y, d in zip(cols["point"], cols["y"], cols["density"]):
        if not (d >= 0 and math.isfinite(d)):
            return [math.nan]
        curves.setdefault(p, []).append((y, d))
    return [
        sum(0.5 * (d0 + d1) * (y1 - y0) for (y0, d0), (y1, d1) in zip(c, c[1:]))
        for c in curves.values()
    ]


def digest_many(root, paths) -> str:
    """One digest over several files' paths below root and their contents."""
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(root)).encode() + b"\0" + digest(p).encode())
    return h.hexdigest()
