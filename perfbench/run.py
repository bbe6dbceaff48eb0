"""gmgan benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gmgan is imported from its src/ directory.
The workload's inputs are made from --seed. Set-up runs at least three
times (the fastest, in process CPU seconds, is `setup_s`), then timed units
run for about --seconds with a fixed reference job between them; the median
of unit CPU time / reference CPU time is `unit_ref_ratio` (README.md says
why). The seconds are printed beside it. With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from every
other unit while the units in between run untraced to give the overhead.
Earlier stdout lines describe the host, each unit and, when traced, the self
time of every span. Spans of a traced run are written to
.bench_out/spans-<workload>.jsonl.gz. BLAS runs on one thread.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk",
                   help="tiny runs every workload at the TINY profile "
                        "(self-test only)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def host_info():
    """CPU, core count, Python, numpy and OpenBLAS, and BLAS threads in effect."""
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GMG_SEED", None)     # the seed comes only from --seed

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "gmgan" / "__init__.py").is_file():
        print("error: no gmgan sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gmgan
    if Path(gmgan.__file__).resolve().parent != src / "gmgan":
        print("error: imported gmgan from %s, not %s" % (gmgan.__file__, src),
              file=sys.stderr)
        return 2
    from tracing import PER_LAYER, UNITS, Tracer
    from workloads import SCALES, WORKLOADS, UnitFailed

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    host = host_info()
    print("host " + " ".join("%s=%s" % (k, json.dumps(v)) for k, v in host.items()))
    print("workload %s seed=%d seconds=%g trace=%d scale=%s"
          % (args.workload, args.seed, args.seconds, args.trace, args.scale))

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=out_dir)
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](SCALES[args.scale], args.seed,
                                            workdir, tracer)
        workload.measure_setup()
        if args.trace:
            tracer.install()
        try:
            units = workload.run_units(args.seconds, bool(args.trace))
        finally:
            tracer.uninstall()
        final_failure = None
        if units and not units[-1].failures:
            try:
                workload.final_checks()
            except UnitFailed as e:
                final_failure = str(e)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = workload.setup_times

    attempted = sum(u.ops for u in units)
    failed = sum(u.ops for u in units if u.failures)
    if final_failure is not None:
        failed += units[-1].ops
    print("setup runs (wall/cpu s): " + " ".join("%.4f/%.4f" % t for t in setups))
    for i, u in enumerate(units):
        print("unit %d %s wall=%.4fs cpu=%.4fs ref=%.4fs ops=%d%s"
              % (i, "traced" if u.traced else "untraced", u.wall, u.cpu,
                 u.ref or 0.0, u.ops,
                 "".join("\n  FAILED: " + f for f in u.failures)))
    if final_failure is not None:
        print("FAILED: " + final_failure)
    for key, value in sorted(workload.notes.items()):
        print("note %s=%s" % (key, value))
    print("digest %s seed=%d sha256=%s" % (args.workload, args.seed,
                                           workload.digest))

    good = [u for u in units if not u.failures]
    plain = [u for u in good if not u.traced]
    traced = [u for u in good if u.traced]
    if not plain or (args.trace and not traced):
        print("error: no unit completed", file=sys.stderr)
        return 1

    for name, (_, unit) in plain[0].named.items():
        print("%s median = %.4f %s" % (name, median(
            [u.named[name][0] for u in plain]), unit))
    print("error_rate = %d/%d = %.4f" % (failed, attempted, failed / attempted))

    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead":
                value = (median(u.cpu / u.ref for u in traced)
                         / median(u.cpu / u.ref for u in plain) - 1.0)
            else:
                value = median([u.layers[name] for u in traced])
            metrics[name] = {"value": value, "unit": UNITS[name]}
        print_self_times(tracer, median([u.wall for u in traced]), len(traced))
        tracer.write(str(out_dir / ("spans-%s.jsonl.gz" % args.workload)),
                     {"workload": args.workload, "seed": args.seed,
                      "host": host, "units": [[u.traced, u.wall] for u in units]})
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cpu = [u.cpu for u in plain]
        metrics = {"unit_ref_ratio": {"value": median(u.cpu / u.ref
                                                      for u in plain),
                                      "unit": "ratio"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                   "setup_s": {"value": min(c for _, c in setups),
                               "unit": "s"}}
        print("unit cpu s: min %.4f median %.4f max %.4f over %d units; "
              "wall median %.4f" % (min(cpu), median(cpu), max(cpu), len(cpu),
                                    median([u.wall for u in plain])))
        print("reference cpu s: median %.4f"
              % median([u.ref for u in plain]))
        print("setup cpu s: median %.4f over %d set-ups; wall median %.4f"
              % (median(c for _, c in setups), len(setups),
                 median(w for w, _ in setups)))
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_self_times(tracer, unit_wall, n_traced):
    """Per traced unit: calls, inclusive and self seconds, self share of the unit."""
    print("%-36s %9s %10s %10s %7s" % ("span (per traced unit)", "calls",
                                        "incl_s", "self_s", "self%"))
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, own) in rows:
        print("%-36s %9.1f %10.4f %10.4f %6.1f%%"
              % (name, calls / n_traced, total / n_traced, own / n_traced,
                 100.0 * own / n_traced / unit_wall))


if __name__ == "__main__":
    sys.exit(main())
