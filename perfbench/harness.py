"""Measurement machinery shared by the workloads.

Nothing here imports numpy or the package under test, so the benchmark can
refuse to run (exit code 2) before touching either when the checkout has no
source tree.
"""
from __future__ import annotations

import importlib.metadata
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable

# BLAS and OpenMP pools are pinned to one thread unless the caller set them:
# the package works on 2x2 and 4x4 matrices, where pooled threads only add
# spin-wait noise on a small machine. The values in effect are recorded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Upper bound on one subprocess; a hung CLI call is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def require_source() -> None:
    """Put the checkout's src/ first on the import path, or exit with code 2."""
    if not (SRC / "qtradeoff" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'qtradeoff'}; "
              "run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + pythonpath if pythonpath else "")


# The machine's speed drifts by tens of percent over seconds when it is shared
# (in a fixed CPU loop, the median time per second of loop ranged 1.8x over
# 40 s on a 2-core VM). A short fixed kernel, timed between consecutive ops,
# tracks that drift: an op's measured times are multiplied by REFERENCE_S over
# the mean kernel time just before and just after it. REFERENCE_S is close to
# the kernel's median time on a quiet 2-core x86-64 VM (Python 3.11, numpy
# 2.4, single-threaded OpenBLAS), so scaled seconds read as seconds there.
REFERENCE_S = 2.0e-3
_REFERENCE_MATRIX = [[1, 2j, 0, 1], [0, 1, 1j, 0], [1, 0, 2, 1], [0, 1j, 0, 1]]


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter work and 4x4 numpy calls, measured now."""
    import numpy as np
    a = np.array(_REFERENCE_MATRIX)
    m = a
    t0 = time.perf_counter()
    for _ in range(150):
        m = (a @ m) / 4.0
        np.linalg.eigvalsh(m + m.conj().T)
    return time.perf_counter() - t0


class SpeedScale:
    """Scale factors for consecutive measurements, from kernel timings between them."""

    def __init__(self):
        self.last = reference_seconds()

    def next(self) -> float:
        """Scale for what ran since the previous kernel timing."""
        now = reference_seconds()
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the checkout's src/ on its path."""
    return subprocess.run([PYTHON, *args], cwd=ROOT, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """One `qtradeoff` invocation, as a user pays for it: start-up, imports, command."""
    return run_python(["-m", "qtradeoff.cli", *argv])


def _checked(proc: subprocess.CompletedProcess) -> subprocess.CompletedProcess:
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args!r} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc


_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import qtradeoff; "
                 "print(repr(time.perf_counter() - t0))")


def compile_bytecode() -> None:
    """Import once, untimed: later imports find the sources in the page cache,
    and their bytecode cached unless PYTHONDONTWRITEBYTECODE is set."""
    _checked(run_python(["-c", "import qtradeoff"]))


def setup_seconds(repeats: int = 5) -> tuple[float, float]:
    """Median time of `import qtradeoff` in a fresh interpreter: (scaled, as measured)."""
    speed = SpeedScale()
    raw, scaled = [], []
    for _ in range(repeats):
        raw.append(float(_checked(run_python(["-c", _IMPORT_PROBE])).stdout))
        scaled.append(raw[-1] * speed.next())
    return statistics.median(scaled), statistics.median(raw)


def interpreter_seconds(repeats: int = 5) -> float:
    """Median wall time of a bare interpreter start and exit."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _checked(run_python(["-c", "pass"]))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(text: str) -> dict[str, float]:
    """Split `-X importtime` output by top-level package (self times, seconds)."""
    self_us: dict[str, int] = defaultdict(int)
    total_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        self_us[name.split(".")[0]] += int(fields[0])
        if name == "qtradeoff":
            total_us = int(fields[1])
    return {
        "import.total_s": total_us / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.qtradeoff_self_s": self_us["qtradeoff"] / 1e6,
    }


def import_split(repeats: int = 3) -> dict[str, float]:
    """Per-package import times of `import qtradeoff`, medians over fresh interpreters."""
    runs = [parse_importtime(
        _checked(run_python(["-X", "importtime", "-c", "import qtradeoff"])).stderr.decode())
        for _ in range(repeats)]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With ten or fewer samples no percentile qualifies; the maximum is returned
    with percentile 100.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _distribution_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(loadavg: tuple[float, float, float]) -> dict:
    """Where and on what a result was measured."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _distribution_version("numpy"),
        "scipy": _distribution_version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
    }


class Tally:
    """Exact counts and extremes that ops report while they run."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(int)

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)


class Calls:
    """Calls from the benchmark into the package; the untraced variant adds nothing."""

    traced = False

    def __call__(self, layer: str, fn, *args):
        return fn(*args)


class TracedCalls(Calls):
    """Times every call the benchmark makes into a layer, aggregated per function.

    Spans are folded into (calls, busy seconds) per (layer, function) as they
    close, so memory stays constant however many calls a run makes.
    """

    traced = True

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])

    def __call__(self, layer: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            entry = self.stats[layer, fn.__name__]
            entry[0] += 1
            entry[1] += time.perf_counter() - t0

    def layer_totals(self, layer: str) -> tuple[int, float]:
        calls = sum(v[0] for (lay, _), v in self.stats.items() if lay == layer)
        busy = sum(v[1] for (lay, _), v in self.stats.items() if lay == layer)
        return calls, busy

    def busy_total(self) -> float:
        return sum(v[1] for v in self.stats.values())
