"""The three workloads.

Each drives ``entfrac.cli.main`` in-process with ``--workers 1``, one
operation after another (a closed loop with one client), and checks every
output against ``reference``.  An operation fails when its exit code is not
the expected one; an output that disagrees with the reference makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import time

import numpy as np

import entfrac.cli
import reference as ref

CSV_COLUMNS = (
    "index", "family", "param1", "param2", "F", "E", "C", "F_T_max",
    "B_canonical", "B_max_angles", "lower_ok", "upper_ok",
)

# a search may fall short of its closed form by this much, never exceed it
SEARCH_TOL = {"B_max_angles": 1e-9, "B_max_unitaries": 1e-6}


def derive_seed(seed: int, *tags: int) -> int:
    """A program seed in [0, 2^62) for one use of the workload seed."""
    state = np.random.SeedSequence([seed % (1 << 64), *tags]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(2))


def invoke(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stderr, seconds) of one in-process command-line call."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = entfrac.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue(), time.perf_counter() - start


def _close(got: float, want: float, tol: float = ref.TOL) -> bool:
    return abs(got - want) <= tol


def _value(field: str) -> float | None:
    return None if field == "" else float(field)


class Workload:
    """Shared bookkeeping: counted operations, failures and check errors.

    Counted operations are this workload's own; uncounted ones measure its
    metrics inside another workload's run and are checked but not counted.
    """

    name = ""
    min_rounds = 1  # whole counted rounds a run makes at least
    trace_rounds = 1  # counted rounds of a traced run
    companion_rounds = 1  # uncounted rounds inside another workload's run

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _count(self, counted: bool, ok: bool, what: str, stderr: str = "") -> None:
        if not ok:
            (self.failures if counted else self.errors).append(f"{what} failed: {stderr.strip()}")
        if counted:
            self.attempted += 1
            self.failed += not ok

    def prepare(self) -> None:
        """Make the inputs and run one untimed warm-up operation."""
        raise NotImplementedError

    def round_size(self, counted: bool = True) -> int:
        return 1

    def companion_ops(self) -> int:
        return self.companion_rounds * self.round_size(counted=False)

    def run_op(self, counted: bool = True) -> None:
        raise NotImplementedError

    def run_round(self, counted: bool = True, before_op=lambda: None) -> None:
        for _ in range(self.round_size(counted)):
            before_op()
            self.run_op(counted)

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError


class Campaign(Workload):
    """fig2 plus lower- and upper-family sample commands; seeds advance per op."""

    name = "campaign"
    FIG2_ROWS = 200
    FAMILY_ROWS = 50
    trace_rounds = 2
    companion_rounds = 2

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.next_op = 0
        self.rows = 0
        self.seconds = 0.0

    @property
    def rows_per_op(self) -> int:
        return self.FIG2_ROWS + 2 * self.FAMILY_ROWS

    def prepare(self):
        # a tenth-size campaign runs the same commands
        self._op(derive_seed(self.seed, 1, 0), counted=False, rows=(20, 5), timed=False)

    def run_op(self, counted=True):
        self.next_op += 1
        self._op(derive_seed(self.seed, 1, self.next_op), counted)

    def _op(self, seed, counted, rows=(FIG2_ROWS, FAMILY_ROWS), timed=True):
        runs = (
            ("fig2", rows[0], self.path("fig2.csv")),
            ("lower", rows[1], self.path("lower.csv")),
            ("upper", rows[1], self.path("upper.csv")),
        )
        elapsed = 0.0
        ok = True
        stderr = ""
        for family, count, out in runs:
            command = ["--command", "fig2"] if family == "fig2" else ["--command", "sample", "--family", family]
            rc, stderr_part, seconds = invoke(
                command + ["--count", str(count), "--seed", str(seed), "--out", out, "--workers", "1"]
            )
            elapsed += seconds
            ok = ok and rc == 0
            stderr += stderr_part
        self._count(counted, ok, f"campaign seed {seed}", stderr)
        if timed:
            self.rows += sum(count for _, count, _ in runs)
            self.seconds += elapsed
        if ok:
            for family, count, out in runs:
                self.errors.extend(check_campaign_csv(out, family, seed, count))
            self.errors.extend(check_bounds_csv(self.path("fig2_bounds.csv")))

    def metrics(self):
        return {"campaign_rows_per_s": self.rows / self.seconds}


def check_campaign_csv(path: str, family: str, seed: int, count: int) -> list[str]:
    """Every row against its reproduced draw and the reference values."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    where = f"{os.path.basename(path)} seed {seed}"
    if len(rows) != count:
        return [f"{where}: {len(rows)} rows, expected {count}"]
    if rows and set(CSV_COLUMNS) - set(rows[0]):
        return [f"{where}: missing columns {sorted(set(CSV_COLUMNS) - set(rows[0]))}"]
    errors = []
    for i, row in enumerate(rows):
        rho, p1, p2 = ref.draw(family, seed, i)
        f = ref.fef(rho)
        e = ref.renormalized(f)
        c = ref.concurrence(rho)
        want = {
            "F": (f, ref.TOL),
            "E": (e, ref.TOL),
            "C": (c, ref.TOL_C),
            "F_T_max": ((1.0 + 2.0 * f) / 3.0, ref.TOL),
            "B_canonical": (ref.chsh_canonical(rho), ref.TOL),
            "B_max_angles": (ref.chsh_angles(rho), SEARCH_TOL["B_max_angles"]),
        }
        if family == "lower":
            e_cf, c_cf = ref.lower_closed_form(p1, p2)
            want["E_closed_form"] = (e_cf, ref.TOL)
            want["C_closed_form"] = (c_cf, ref.TOL_C)
        elif family == "upper":
            e_cf, c_cf = ref.upper_closed_form(p1)
            want["E_closed_form"] = (e_cf, ref.TOL)
            want["C_closed_form"] = (c_cf, ref.TOL_C)
        bad = []
        if row["index"] != str(i) or row["family"] != family:
            bad.append("index/family")
        for column, expected in (("param1", p1), ("param2", p2)):
            got = _value(row[column])
            if (got is None) != (expected is None) or (got is not None and not _close(got, expected)):
                bad.append(column)
        for key, (value, tol) in want.items():
            column = key.split("_closed_form")[0]
            if not _close(float(row[column]), value, tol):
                bad.append(f"{key}={row[column]} want {value:.12g}")
        # the window E <= C <= (E+1)/2 holds for every state, so both flags
        # must be set and the reference values must sit inside it
        if row["lower_ok"] != "1" or row["upper_ok"] != "1":
            bad.append("window flags")
        if not (e <= c + ref.TOL_C and c <= (e + 1.0) / 2.0 + ref.TOL_C):
            bad.append("reference outside the window")
        if float(row["B_max_angles"]) > ref.TSIRELSON * float(row["F"]) + ref.TOL:
            bad.append("B_max_angles above 2 sqrt2 F")
        if bad:
            errors.append(f"{where} row {i}: {', '.join(bad)}")
    return errors


def check_bounds_csv(path: str) -> list[str]:
    """The companion file tabulates C = E and C = (E+1)/2 on a uniform E grid."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 2 or list(rows[0]) != ["E", "C_min", "C_max"]:
        return [f"{path}: expected columns E,C_min,C_max over at least 2 rows"]
    step = 1.0 / (len(rows) - 1)
    for k, row in enumerate(rows):
        e, lo, hi = float(row["E"]), float(row["C_min"]), float(row["C_max"])
        if not (_close(e, k * step) and _close(lo, e) and _close(hi, (e + 1.0) / 2.0)):
            return [f"{path} row {k}: {row}"]
    return []


class Analyze(Workload):
    """One analyze call per operation, over a file set made from the seed."""

    name = "analyze"
    # at least 100 valid calls, so ten lie beyond the p90
    min_rounds = 3

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.files: list[tuple[str, int, np.ndarray | None]] = []
        self.valid: list[tuple[str, int, np.ndarray]] = []
        self.latencies: list[float] = []
        # next file, for counted rounds (every file) and uncounted (valid only)
        self.cursor = {True: 0, False: 0}

    def prepare(self):
        for label, rho in analyze_states(self.seed):
            path = self.path(f"{label}.json")
            write_state(path, rho)
            self.files.append((path, 0, rho))
            self.valid.append((path, 0, rho))
        for label, text, expected in INVALID_FILES:
            path = self.path(f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files.append((path, expected, None))
        self._op(self.files[0], counted=False)
        self.latencies.clear()

    def round_size(self, counted=True):
        return len(self.files if counted else self.valid)

    def run_op(self, counted=True):
        cycle = self.files if counted else self.valid
        self._op(cycle[self.cursor[counted] % len(cycle)], counted)
        self.cursor[counted] += 1

    def _op(self, entry, counted):
        path, expected, rho = entry
        out = self.path("report.json")
        if os.path.exists(out):
            os.remove(out)
        rc, stderr, seconds = invoke(
            ["--command", "analyze", "--in", path, "--format", "json", "--out", out, "--workers", "1"]
        )
        self._count(counted, rc == expected, f"analyze {os.path.basename(path)}", stderr)
        if rho is not None and rc == 0:
            self.latencies.append(seconds)
            with open(out, encoding="utf-8") as fh:
                self.errors.extend(check_report(json.load(fh), rho, os.path.basename(path)))

    def metrics(self):
        ms = [1000.0 * t for t in self.latencies]
        return {
            "analyze_ms_p50": statistics.median(ms),
            "analyze_ms_p90": statistics.quantiles(ms, n=10)[-1],
        }


def check_report(report: dict, rho: np.ndarray, label: str) -> list[str]:
    """An analyze report against the reference values of its state."""
    f = ref.fef(rho)
    v = ref.phi1_overlap(rho)
    want = {
        "F": (f, ref.TOL),
        "E": (ref.renormalized(f), ref.TOL),
        "C": (ref.concurrence(rho), ref.TOL_C),
        "F_DC": (v, ref.TOL),
        "F_DC_max": (f, ref.TOL),
        "F_T": ((1.0 + 2.0 * v) / 3.0, ref.TOL),
        "F_T_max": ((1.0 + 2.0 * f) / 3.0, ref.TOL),
        "F_ES": (v, ref.TOL),
        "F_ES_max": (f, ref.TOL),
        "B_canonical": (ref.chsh_canonical(rho), ref.TOL),
    }
    bad = [
        f"{key}={report.get(key)} want {value:.12g}"
        for key, (value, tol) in want.items()
        if not isinstance(report.get(key), float) or not _close(report[key], value, tol)
    ]
    # the searches may fall short of the closed forms, never exceed them
    for key, closed in (("B_max_angles", ref.chsh_angles(rho)), ("B_max_unitaries", ref.chsh_unitaries(rho))):
        got = report.get(key)
        if not isinstance(got, float) or not closed - SEARCH_TOL[key] <= got <= closed + ref.TOL:
            bad.append(f"{key}={got} want {closed:.12g}")
    if isinstance(report.get("B_max_angles"), float) and report["B_max_angles"] > ref.TSIRELSON * f + ref.TOL:
        bad.append("B_max_angles above 2 sqrt2 F")
    return [f"analyze {label}: {', '.join(bad)}"] if bad else []


def write_state(path: str, rho: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": rho.shape[0], "re": rho.real.tolist(), "im": rho.imag.tolist()}, fh)


def _random_ket(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def analyze_states(seed: int) -> list[tuple[str, np.ndarray]]:
    """The valid analyze inputs: 32 draws and 17 structured states, among
    them pure, rank-deficient and fully degenerate ones.

    Structured states run ~20% faster than draws, so the draws are the
    majority and the median call lies well inside their cluster.
    """
    draw_seed = derive_seed(seed, 3, 0)
    rng = np.random.default_rng(derive_seed(seed, 3, 1))
    states = [(f"fig2_{i}", ref.draw("fig2", draw_seed, i)[0]) for i in range(16)]
    states += [(f"raw_{i}", ref.draw("raw", draw_seed, i)[0]) for i in range(16)]
    for k, p in enumerate((rng.random(), rng.random(), 1.0 / 3.0, 1.0, 0.0)):
        states.append((f"werner_{k}", ref.werner(p)))
    lower = [(rng.random(), rng.random() * np.pi / 2) for _ in range(3)]
    lower += [(0.0, rng.random() * np.pi / 2), (0.0, 0.0)]
    for k, (epsilon, theta) in enumerate(lower):
        states.append((f"lower_{k}", ref.lower_state(epsilon, theta)))
    for k, zeta in enumerate((rng.random(), rng.random(), 0.0, 0.5, 1.0)):
        states.append((f"upper_{k}", ref.upper_state(zeta)))
    states.append(("pure", ref.projector(_random_ket(rng))))
    states.append(("rank2", 0.5 * ref.projector(_random_ket(rng)) + 0.5 * ref.projector(_random_ket(rng))))
    return states


# Invalid inputs, the same for every seed, with the exit code the CLI
# documents for them: 3 for a matrix that is not a two-qubit state, 2 for
# text that does not parse.
_ZERO = [[0.0] * 4 for _ in range(4)]
_NAN = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
_NAN[0][1] = math.nan
INVALID_FILES = (
    ("invalid_not_psd", json.dumps({"dim": 4, "re": [[0.6, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.2, 0], [0, 0, 0, -0.3]], "im": _ZERO}), 3),
    ("invalid_trace", json.dumps({"dim": 4, "re": [[0.3 if i == j else 0.0 for j in range(4)] for i in range(4)], "im": _ZERO}), 3),
    ("invalid_json", '{"dim": 4, "re": [[0.25, 0', 2),
    # exits 2 today: a NaN entry passes the density checks
    ("invalid_nan", json.dumps({"dim": 4, "re": _NAN, "im": _ZERO}), 3),
    # exits 2 today: a valid 2x2 state passes validation against its own dim
    ("invalid_2x2", json.dumps({"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}), 3),
)


class IdentitySuite(Workload):
    """verify at full tolerances on a new seed per operation, then ddim at
    its default seed.

    At some seeds ddim's d=3 saturation check falls short of its tolerance
    (see CHANGES.md); a failure that depends on the seed cannot be counted
    steadily, so ddim keeps the seed a user gets without --seed.
    """

    name = "identity_suite"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.next_op = 0
        self.verify_s: list[float] = []
        self.ddim_s: list[float] = []

    def prepare(self):
        # the quick form runs the verify code, and the d-level dense coding
        # of ddim, on two states; ddim's own searches keep no state to warm
        seed = derive_seed(self.seed, 2, 0)
        ok, _, note = self._command("verify", ["--seed", str(seed), "--quick", "--count", "2"])
        self._count(False, ok, "verify warm-up", note)

    def run_op(self, counted=True):
        self.next_op += 1
        seed = derive_seed(self.seed, 2, self.next_op)
        ok_v, t_v, note_v = self._command("verify", ["--seed", str(seed)])
        ok_d, t_d, note_d = self._command("ddim", [])
        self._count(counted, ok_v and ok_d, f"identity suite, verify seed {seed}", note_v + note_d)
        self.verify_s.append(t_v)
        self.ddim_s.append(t_d)

    def _command(self, command, extra):
        """(exit code 0, seconds, stderr and FAIL lines) of one command."""
        out = self.path(f"{command}.txt")
        if os.path.exists(out):
            os.remove(out)
        rc, stderr, seconds = invoke(["--command", command, "--out", out, "--workers", "1"] + extra)
        report = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                report = fh.read()
        if rc == 0:
            self.errors.extend(check_identity_report(report, f"{command} {' '.join(extra)}"))
        fails = [line for line in report.splitlines() if line.startswith("FAIL")]
        return rc == 0, seconds, stderr + "".join(f"{command}: {line}\n" for line in fails)

    def metrics(self):
        return {"verify_s": statistics.median(self.verify_s), "ddim_s": statistics.median(self.ddim_s)}


def check_identity_report(text: str, label: str) -> list[str]:
    """Every line PASS with max_dev <= tol, and the closing count agrees."""
    lines = text.splitlines()
    checks = lines[:-1]
    if not checks or lines[-1] != f"all {len(checks)} identity checks passed":
        return [f"{label}: closing line {lines[-1:]!r} for {len(checks)} checks"]
    for line in checks:
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if not line.startswith("PASS ") or not float(fields["max_dev"]) <= float(fields["tol"]):
            return [f"{label}: {line}"]
    return []


WORKLOADS = {cls.name: cls for cls in (Campaign, Analyze, IdentitySuite)}
