"""Layered benchmark of encctl: end-to-end throughput per workload, or
per-layer counts and self times from a traced pass.

    python3 bench/run.py --workload loop_k712 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  Single-threaded, with BLAS pinned to one thread.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  repeats set-up SETUP_REPEATS times (median is ``setup_s``), then
           runs operations closed-loop for --seconds and reports the median
           per-operation throughput and the peak resident memory.
--trace 1  runs one fixed pass untraced (repeated for --seconds), then the
           same pass with every public encctl function wrapped, and reports
           the per-layer metrics of the traced pass plus the tracing
           overhead.  A fixed pass makes every count repeat exactly at a
           fixed seed; the traced outputs must equal the untraced ones.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

import argparse  # noqa: E402
import builtins  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "encctl" / "__init__.py").is_file():
    sys.exit(f"error: no encctl sources under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benchtrace import LAYERS, SpanIndex, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, FULL, TOY, WORKLOADS, Check, no_span  # noqa: E402

from encctl import modgroup  # noqa: E402

SETUP_REPEATS = 3

UPDATABLE_FNS = ("key_update", "ct_update", "cross_eval", "cross_decrypt")
IDENT_FNS = ("collect_data", "least_squares_estimate", "monte_carlo_error")
DESIGN_FNS = ("solve_discrete_lyapunov", "gramians", "design", "sic_full")


def run_info(wl, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name,
        "backend": "pow" if modgroup.powmod is builtins.pow else "gmpy2",
        "key_bits": wl.key_bits or None,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_op(wl, i: int, tracer: Tracer | None = None) -> tuple[list, Check]:
    """One operation's (seconds, units) samples and its check, which runs
    with the tracer taken out."""
    samples, out = wl.run(i)
    if tracer is not None:
        tracer.uninstall()
    try:
        return samples, wl.check(i, out)
    finally:
        if tracer is not None:
            tracer.install()


def run_pass(wl, tracer: Tracer | None = None) -> tuple[float, int, list[Check]]:
    """One fixed pass: total measured seconds, units of work, checks."""
    seconds, units, checks = 0.0, 0, []
    for i in range(wl.pass_ops):
        samples, check = run_op(wl, i, tracer)
        seconds += sum(s for s, _ in samples)
        units += sum(u for _, u in samples)
        checks.append(check)
    return seconds, units, checks


# ---------------------------------------------------------------------------
# --trace 0


def end_to_end(cls, seed, size, seconds, workdir):
    setup_s, group_s, wl = [], [], None
    for rep in range(SETUP_REPEATS):
        t0 = perf_counter()
        inst = cls(seed, size, rep, workdir)
        setup_s.append(perf_counter() - t0)
        group_s.append(inst.group_s)
        wl = wl or inst  # the first set-up is the one measured

    rates, checks = [], []
    units = 0
    t0 = perf_counter()
    i = 0
    while True:
        samples, check = run_op(wl, i)
        rates += [u / s for s, u in samples]
        units += sum(u for _, u in samples)
        checks.append(check)
        i += 1
        if perf_counter() - t0 >= seconds:
            break

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    violations = sum(c.bound_violations for c in checks)
    setup = statistics.median(setup_s)
    throughput = statistics.median(rates)
    rss = peak_rss_mb()

    print(f"# run info: {json.dumps(run_info(wl, seed))}")
    if wl.key_bits and max(group_s) > 0:
        share = statistics.median(group_s) / setup
        print(
            f"# note: setup_s is dominated by the {wl.key_bits}-bit safe-prime search "
            f"({share:.0%} of the median set-up); its cost depends on the seed, "
            f"so compare setup_s only at equal seeds"
        )
    if wl.name == "attack_mc":
        law = "a failure at this seed" if seed == DEFAULT_SEED else f"a failure only at seed {DEFAULT_SEED}"
        print(f"# identification.bound_violations = {violations} over {i} preset runs; {law}")
    print(f"{'setup_s':<24}{setup:12.4f} s      median of {SETUP_REPEATS} set-ups")
    print(f"{wl.metric:<24}{throughput:12.4f} 1/s    median of {len(rates)} samples "
          f"over {i} operations ({units} {wl.unit_label})")
    print(f"{'error_rate':<24}{failed / attempted:12.4f} ratio  "
          f"{failed} failed of {attempted} checks on {wl.unit_label}")
    print(f"{'peak_rss_mb':<24}{rss:12.1f} MiB")
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# --trace 1


def layer_metrics(ix: SpanIndex, units: int, gen_s: float, violations: int) -> dict:
    m = {}

    def count(name, value):
        m[name] = (value, "count")

    def secs(name, value):
        m[name] = (value, "s")

    def per(a, b):
        return a / b if b else 0.0

    pm = "modgroup.powmod"
    count(f"{pm}.calls", ix.calls(pm))
    count(f"{pm}.calls_per_op", per(ix.calls(pm), units))
    secs(f"{pm}.self_s", ix.self_time(pm))
    count("modgroup.is_member.calls", ix.calls("modgroup.is_member"))
    nearest = ix.select("modgroup.nearest_member")
    probes = sum(
        1 for i in ix.select("modgroup.is_member")
        if ix.spans[i].parent >= 0 and ix.spans[ix.spans[i].parent].name == "modgroup.nearest_member"
    )
    count("modgroup.nearest_member.calls", len(nearest))
    count("modgroup.nearest_member.probes_per_call", per(probes, len(nearest)))
    secs("modgroup.generate_group_params.s", gen_s)

    for fn in ("encrypt", "decrypt", "keygen"):
        count(f"elgamal.{fn}.calls", ix.calls(f"elgamal.{fn}"))
        secs(f"elgamal.{fn}.self_s", ix.self_time(f"elgamal.{fn}"))
    for fn in UPDATABLE_FNS:
        name = f"updatable.{fn}"
        calls = ix.calls(name)
        count(f"{name}.calls", calls)
        secs(f"{name}.self_s", ix.self_time(name))
        count(f"{name}.powmod_per_call", per(ix.descendants_named(name, pm), calls))
    for fn in ("encode", "decode"):
        count(f"codec.{fn}.calls", ix.calls(f"codec.{fn}"))
        secs(f"codec.{fn}.self_s", ix.self_time(f"codec.{fn}"))
    count("codec.encode.calls_per_op", per(ix.calls("codec.encode"), units))

    for fn in ("encrypt_vector", "encrypted_controller", "decrypt_controller_output", "plant_step"):
        secs(f"enc_control.{fn}.self_s", ix.self_time(f"enc_control.{fn}"))
    # a loop step ends with its key rotation, so successive key_update
    # starts inside one run_encrypted_loop call are one step apart
    loops = set(ix.select("enc_control.run_encrypted_loop"))
    starts: dict[int, list[float]] = {}
    for i in ix.select("updatable.key_update"):
        if ix.spans[i].parent in loops:
            starts.setdefault(ix.spans[i].parent, []).append(ix.spans[i].start)
    step_ms = [1000 * d for s in starts.values() for d in np.diff(sorted(s))]
    steps = sum(len(s) for s in starts.values())
    m["enc_control.step_ms.p50"] = (float(np.percentile(step_ms, 50)) if step_ms else 0.0, "ms")
    m["enc_control.step_ms.p90"] = (float(np.percentile(step_ms, 90)) if step_ms else 0.0, "ms")
    count("enc_control.step_ms.samples", len(step_ms))
    # computed from the integer sizes of the returned ciphertexts, not measured on a wire:
    # the state vector sent each step plus the controller's reply
    ct_bytes = sum(
        s.out_bytes for s in ix.spans
        if s.name == "enc_control.encrypted_controller"
        or (s.name == "enc_control.encrypt_vector" and s.parent in loops)
    )
    m["enc_control.ct_bytes_per_step"] = (per(ct_bytes, steps), "B")

    for fn in IDENT_FNS:
        count(f"identification.{fn}.calls", ix.calls(f"identification.{fn}"))
        secs(f"identification.{fn}.self_s", ix.self_time(f"identification.{fn}"))
    count("identification.bound_violations", violations)

    for fn in DESIGN_FNS:
        name = f"security_design.{fn}"
        count(f"{name}.calls", ix.calls(name))
        secs(f"{name}.self_s", ix.self_time(name))
        for n in FULL.plant_sizes:
            count(f"{name}.n{n}.calls", ix.calls(name, tag=n))
            secs(f"{name}.n{n}.self_s", ix.self_time(name, tag=n))

    count("cli.main.calls", ix.calls("cli.main"))
    secs("cli.main.self_s", ix.layer_self_time("cli"))
    for n in FULL.plant_sizes:
        secs(f"cli.main.n{n}.self_s", ix.layer_self_time("cli", tag=n))
    for layer in LAYERS:
        if layer != "cli":  # cli.main.self_s is the cli layer's total
            secs(f"{layer}.self_s", ix.layer_self_time(layer))
    count("trace.spans", len(ix.spans))
    count("trace.units", units)
    return m


def traced(cls, seed, size, seconds, workdir):
    tracer = Tracer()
    with tracer.installed():
        wl = cls(seed, size, 0, workdir)
    gen_s = sum(s.end - s.start for s in tracer.spans if s.name == "modgroup.generate_group_params")
    tracer.spans = []

    pass_s, checks = [], []
    t0 = perf_counter()
    while True:
        dt, _, pass_checks = run_pass(wl)
        pass_s.append(dt)
        checks += pass_checks
        if perf_counter() - t0 >= seconds:
            break
    reference = [c.digest for c in pass_checks]

    wl.span = tracer.span
    bindings = tracer.install()
    try:
        traced_s, units, traced_checks = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
        wl.span = no_span
    changed = sum(c.digest != d for c, d in zip(traced_checks, reference))
    checks += traced_checks

    ix = SpanIndex(tracer.spans)
    metrics = layer_metrics(ix, units, gen_s, sum(c.bound_violations for c in traced_checks))
    overhead = traced_s / statistics.median(pass_s) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.bindings"] = (bindings, "count")

    print(f"# run info: {json.dumps(run_info(wl, seed))}")
    print(f"# traced pass: {wl.pass_ops} operations, {units} {wl.unit_label}, {len(ix.spans)} spans, "
          f"{bindings} bindings wrapped; overhead {overhead:+.1%} against the median of "
          f"{len(pass_s)} untraced passes; outputs changed by tracing: {changed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52}{value:16.6g} {unit}")
    attempted = sum(c.attempted for c in checks) + len(traced_checks)
    failed = sum(c.failed for c in checks) + changed
    return attempted, failed, metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="64-bit group and tiny inputs (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    size = TOY if args.toy else FULL
    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        mode = traced if args.trace else end_to_end
        attempted, failed, metrics = mode(cls, args.seed, size, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
