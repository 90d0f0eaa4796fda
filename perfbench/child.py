"""One CLI invocation in a fresh interpreter, reporting its own timings.

    python3 perfbench/child.py --mode {run,setup,trace} --result FILE -- CLI_ARGS...

The CLI runs through ``dpcfocus.cli.main(CLI_ARGS)`` from the checkout's
``src``. Set-up ends when the scenario function is entered, which is just
before the first RX placement. ``setup`` mode stops there; ``trace`` mode
also wraps the library's public functions at each module that imports them
and summarizes the spans. The report (monotonic time stamps, CPU time, peak
RSS, spans) goes to FILE as JSON; a CLI failure leaves FILE unwritten and
the exit code nonzero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public functions, by defining module, traced at every other dpcfocus module
# that imports them (calls inside the defining module stay untraced).
IMPORTED_FUNCTIONS = (
    ("dpcfocus.geometry", "build_circular_array"),
    ("dpcfocus.geometry", "orientation_grid"),
    ("dpcfocus.beamforming", "evaluate_snr"),
    ("dpcfocus.beamforming", "dpc_beamformer"),
    ("dpcfocus.beamforming", "polarization_angle_map"),
    ("dpcfocus.experiments", "orientation_sweep"),
    ("dpcfocus.experiments", "distance_sweep"),
    ("dpcfocus.experiments", "improvement_stats"),
    ("dpcfocus.experiments", "ergodic_rate"),
)
# (module, class, method, span name) traced on the class itself.
METHODS = (
    ("dpcfocus.channel", "ChannelGeometry", "__init__", "channel.ChannelGeometry"),
    ("dpcfocus.channel", "ChannelGeometry", "channel_for", "channel.channel_for"),
)
# (module, class, counter name): instances built, counted without spans.
COUNTED_CLASSES = (("dpcfocus.experiments", "SweepRecord", "experiments.records"),)


class SetupDone(BaseException):
    """Raised at the end of set-up in ``setup`` mode.

    Not an Exception subclass, so no handler inside the CLI catches it.
    """


def stamp() -> float:
    "CLOCK_MONOTONIC is shared by all processes, so the parent can compare stamps."
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def install_tracing(tracer, cli, absent: list) -> None:
    from spans import array_bytes

    probes = {
        "channel.channel_for": lambda args, result: {
            "bytes": array_bytes(args[0]) + array_bytes(result)},
        "beamforming.evaluate_snr": lambda args, result: {"bytes": array_bytes(args[0])},
    }
    for module_name, name in IMPORTED_FUNCTIONS:
        span = f"{module_name.rsplit('.', 1)[1]}.{name}"
        home = load(module_name)
        fn = getattr(home, name, None)
        sites = [m for key, m in list(sys.modules.items())
                 if key.startswith("dpcfocus") and m is not home and getattr(m, name, None) is fn]
        if fn is None or not sites:
            absent.append(span)
            continue
        traced = tracer.wrap(span, fn, probes.get(span))
        for module in sites:
            setattr(module, name, traced)
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(load(module_name), cls_name, None)
        fn = getattr(cls, method, None)
        if fn is None:
            absent.append(span)
            continue
        setattr(cls, method, tracer.wrap(span, fn, probes.get(span)))
    for module_name, cls_name, counter in COUNTED_CLASSES:
        cls = getattr(load(module_name), cls_name, None)
        if cls is None:
            absent.append(counter)
            continue
        cls.__init__ = tracer.count(counter, cls.__init__)
    for key, fn in list(getattr(cli, "SCENARIOS", {}).items()):
        cli.SCENARIOS[key] = tracer.wrap(f"cli.{getattr(fn, '__name__', key)}", fn)
    cli.main = tracer.wrap("cli.main", cli.main)


def mark_setup_end(cli, report: dict, stop: bool) -> bool:
    "Stamp the first entry into a scenario function; False if there is none to wrap."
    scenarios = getattr(cli, "SCENARIOS", None)
    if not isinstance(scenarios, dict):
        return False

    def marked(fn):
        def enter(*args, **kwargs):
            report.setdefault("t_setup_end", stamp())
            if stop:
                raise SetupDone
            return fn(*args, **kwargs)
        return enter

    for key, fn in list(scenarios.items()):
        scenarios[key] = marked(fn)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dpcfocus
    if not Path(dpcfocus.__file__).resolve().is_relative_to(src):
        print(f"child: dpcfocus imported from {dpcfocus.__file__}, not {src}", file=sys.stderr)
        return 2
    from dpcfocus import cli

    report = {"mode": args.mode, "absent": []}
    tracer = None
    if args.mode == "trace":
        from spans import Tracer, summarize, wrapper_cost
        tracer = Tracer()
        install_tracing(tracer, cli, report["absent"])
    if not mark_setup_end(cli, report, stop=args.mode == "setup"):
        report["absent"].append("cli.SCENARIOS")
        report["t_setup_end"] = stamp()
    if args.mode == "setup" and "cli.SCENARIOS" in report["absent"]:
        code = 0
    else:
        try:
            code = cli.main(cli_args)
        except SetupDone:
            code = 0
    report["t_end"] = stamp()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["maxrss_kb"] = usage.ru_maxrss
    perf = load("dpcfocus.perf")
    tune = getattr(perf, "tune_process_allocator", None)
    report["allocator_tuned"] = tune() if tune is not None else "absent"
    from hostinfo import blas_info
    report["blas"] = blas_info()
    report["exit_code"] = code
    result = Path(args.result)
    if tracer is not None:
        report["trace"] = summarize(tracer.names, tracer.spans)
        report["trace"]["counters"] = tracer.counters
        report["trace"]["probes"] = tracer.probes
        scratch = Tracer()
        span_cost = wrapper_cost(lambda fn: scratch.wrap("cost.noop", fn))
        count_cost = wrapper_cost(lambda fn: scratch.count("cost.noop", fn))
        report["trace"]["cost_s"] = (span_cost * len(tracer.spans)
                                     + count_cost * sum(tracer.counters.values()))
        spans = {"names": tracer.names, "spans": tracer.spans}
        result.with_suffix(".spans.json").write_text(json.dumps(spans))
    result.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
