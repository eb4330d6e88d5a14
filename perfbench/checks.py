"""Output checks for the benchmark workloads.

Each checker takes outputs produced by the timed section (after timing has
ended) and returns a list of ``(check, detail)`` failures; an empty list
means the output passed. Tolerances, not stored bit patterns: the
memoized quadrature makes results depend on call history by up to about
1e-8, so equalities are tested to 1e-6 relative unless stated otherwise.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-6
MONOTONE_TOL = 1e-9

Failure = tuple[str, str]


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def region_pairs(
    pairs: list[tuple[float, float]], r1_solo: float, r2_solo: float
) -> list[Failure]:
    """Boundary ``(R1, R2)`` pairs of one rate region on an ascending R2 grid.

    ``r1_solo`` / ``r2_solo`` are ``single_train_rmax`` of train 1 / train 2.
    """
    out: list[Failure] = []
    if not all(math.isfinite(v) for pair in pairs for v in pair):
        out.append(("finite", "non-finite rate in region"))
        return out
    for j in range(1, len(pairs)):
        (r1a, r2a), (r1b, r2b) = pairs[j - 1], pairs[j]
        if not r2b > r2a:
            out.append(("r2_ascending", f"R2[{j}]={r2b:.12g} <= R2[{j - 1}]={r2a:.12g}"))
            break
        if r1b > r1a + MONOTONE_TOL * max(abs(r1a), 1.0):
            out.append(("r1_nonincreasing", f"R1 rises {r1b - r1a:.3g} at grid index {j}"))
            break
    if pairs and not (pairs[0][1] == 0.0 and close(pairs[0][0], r1_solo)):
        out.append(("r1_at_r2_zero", f"R1={pairs[0][0]:.12g}, solo R1={r1_solo:.12g}"))
    if pairs and not close(pairs[-1][1], r2_solo):
        out.append(("last_r2_is_solo", f"R2={pairs[-1][1]:.12g}, solo R2={r2_solo:.12g}"))
    return out


def beam_cells(
    angles: list[float], beam_ids: list[int], lo: float, hi: float, beam_count: int
) -> list[Failure]:
    """Each selected beam's angular cell (1-based, equal widths) holds its angle."""
    if len(angles) != len(beam_ids):
        return [("track_length", f"{len(beam_ids)} selections for {len(angles)} fixes")]
    width = (hi - lo) / beam_count
    for k, (theta, beam) in enumerate(zip(angles, beam_ids)):
        if theta >= hi:
            ok = beam == 1  # past coverage resets to the first beam
        else:
            low = lo + (beam - 1) * width
            # one part in 1e12 of slack for angles on a shared cell edge
            slack = 1e-12 * width
            ok = 1 <= beam <= beam_count and low - slack <= theta < low + width + slack
        if not ok:
            return [("cell_contains_angle", f"fix {k}: beam {beam} of {beam_count} for theta={theta:.12g}")]
    return []


def _read_rows(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def region_csvs(out_dir: Path, etas: list[float], grid_size: int) -> tuple[list[Failure], int]:
    """``rate-region`` CLI output: one file per eta plus ``tfds.csv``.

    Returns the failures and the number of boundary points found.
    """
    out: list[Failure] = []
    points = 0
    expected = {f"rate_region_eta{eta:g}.csv": "region" for eta in etas}
    expected["tfds.csv"] = "tfds"
    for name, kind in expected.items():
        path = out_dir / name
        if not path.is_file():
            out.append((f"{name}:present", "missing"))
            continue
        header, rows = _read_rows(path)
        if header != "R2_bps_hz,R1_bps_hz":
            out.append((f"{name}:header", repr(header)))
        if len(rows) != grid_size:
            out.append((f"{name}:row_count", f"{len(rows)} rows, expected {grid_size}"))
        try:
            values = [(float(r2), float(r1)) for r2, r1 in rows]
        except ValueError as exc:
            out.append((f"{name}:parse", str(exc)))
            continue
        if not all(math.isfinite(v) for pair in values for v in pair):
            out.append((f"{name}:finite", "non-finite value"))
            continue
        # rate_region rows ascend in R2; the TFDS line runs the other way
        sign = 1.0 if kind == "region" else -1.0
        for j in range(1, len(values)):
            (r2a, r1a), (r2b, r1b) = values[j - 1], values[j]
            if not sign * (r2b - r2a) > 0.0 or sign * (r1b - r1a) > MONOTONE_TOL * max(abs(r1a), 1.0):
                out.append((f"{name}:monotone", f"row {j + 1}"))
                break
        if kind == "region":
            points += len(values)
    return out, points


def codebook_csv(
    path: Path, size: int, expected: dict[tuple[int, int], float]
) -> tuple[list[Failure], int]:
    """``export-codebook`` output: ``size * size`` rows in (beam, element) order.

    ``expected`` maps 0-based (beam, element) to the library's phase; the
    file's value must match it to 12 significant digits. The file is
    streamed, not loaded. Returns the failures and the number of data rows.
    """
    if not path.is_file():
        return [("codebook.csv:present", "missing")], 0
    out: list[Failure] = []
    wanted = {beam * size + element: (beam, element, phase) for (beam, element), phase in expected.items()}
    rows = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "beam_id,element_id,phase_rad":
            out.append(("codebook.csv:header", repr(header)))
        for k, line in enumerate(fh):
            rows += 1
            if k not in wanted:
                continue
            beam, element, phase = wanted.pop(k)
            row = line.rstrip("\n").split(",")
            try:
                ok = (
                    len(row) == 3
                    and int(row[0]) == beam + 1
                    and int(row[1]) == element + 1
                    and close(float(row[2]), phase, rel=1e-11, abs_tol=1e-12)
                )
            except ValueError:
                ok = False
            if not ok:
                out.append(("codebook.csv:sample_row", f"row {k + 2} = {row!r}, expected phase {phase:.12g}"))
    if rows != size * size:
        out.insert(0, ("codebook.csv:row_count", f"{rows} rows, expected {size * size}"))
    out += [("codebook.csv:sample_row", f"row {k + 2} missing") for k in sorted(wanted)]
    return out, rows


ORACLE_REL_TOL = 1e-12


def simpson(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]`` to ``ORACLE_REL_TOL``.

    The oracle's own quadrature, so that it neither depends on nor repeats
    the library's: each interval is halved until the Richardson estimate of
    its error is within its share of the tolerance.
    """
    if a == b:
        return 0.0

    def refine(a, b, fa, fm, fb, whole, tol, depth):
        mid = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + mid)), f(0.5 * (mid + b))
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if depth == 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return refine(a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1) + refine(
            mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return refine(a, b, fa, fm, fb, whole, ORACLE_REL_TOL * abs(whole) or ORACLE_REL_TOL, 48)


def oracle_r1(sc, r2: float) -> float:
    """Train 1's best rate at ``r2`` from direct quadrature, without the memo.

    An independent restatement of ``no_priority_allocation``: the same two
    power equalities, each integral taken afresh by ``simpson`` over its
    full interval, and the split bisected to convergence.
    """
    base = sc.perpendicular_distance**2 + sc.antenna_height**2
    half = 0.5 * sc.path_loss_exponent

    def gain(shift: float):
        return lambda t: (base + (sc.speed * t - shift) ** 2) ** half

    g1 = gain(sc.half_coverage * (1.0 - sc.entry_offset))
    g2 = gain(sc.half_coverage)
    t_ov, budget, noise = sc.overlap_end, sc.power_budget, sc.noise_power
    w1, w2 = sc.beam_weight_1, sc.beam_weight_2
    solo1 = simpson(g1, sc.entry_time, 0.0)
    full1 = simpson(g1, 0.0, t_ov)
    solo2 = simpson(g2, t_ov, sc.exit_time)
    full2 = simpson(g2, 0.0, t_ov)
    boost2 = 2.0**r2

    def rate_1(lam: float) -> float:
        early1 = simpson(g1, 0.0, lam * sc.half_coverage / sc.speed)
        return math.log2(1.0 + budget * w1 / (noise * (solo1 + boost2 * early1 + full1 - early1)))

    def h2_usage(lam: float, r1: float) -> float:
        early2 = simpson(g2, 0.0, lam * sc.half_coverage / sc.speed)
        return (boost2 - 1.0) * noise * (solo2 + early2 + 2.0**r1 * (full2 - early2)) / (w2 * budget)

    if t_ov <= 0.0 or r2 == 0.0 or h2_usage(0.0, rate_1(0.0)) <= 1.0:
        return rate_1(0.0)
    lo, hi = 0.0, 2.0 - sc.entry_offset
    while hi - lo > 1e-13:
        lam = 0.5 * (lo + hi)
        if h2_usage(lam, rate_1(lam)) > 1.0:
            lo = lam
        else:
            hi = lam
    return rate_1(0.5 * (lo + hi))
