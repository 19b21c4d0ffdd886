"""One benchmark repeat: a fresh interpreter making one rcpolicy CLI call.

Usage: python3 worker.py SPAWN_T RESULT_JSON TRACE CLI_ARG...

SPAWN_T is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide, so the two clocks agree). The
worker times `import rcpolicy.cli` from that instant (set-up), optionally
installs the span recorder, times `cli.main(argv)` while a forked probe
times a fixed job on the same CPU, and writes one JSON object with the
timings, exit code, peak RSS and (when traced) the per-layer summary to
RESULT_JSON.
"""
import json
import os
import resource
import select
import sys
import time

PROBE_PERIOD_S = 0.025
# Share of the slowest probe samples left out: a sample that waited behind
# the call (or an interrupt) measures the scheduler, not the CPU's speed.
PROBE_TRIM = 0.1


def _probe_job() -> float:
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(2500):
        acc[i % 97] = acc.get(i % 97, 0) + i
    return time.perf_counter() - t0


def _cpu_of(pid: int) -> int:
    """The CPU the process last ran on (field 39 of /proc/PID/stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    return int(stat[stat.rindex(")") + 2:].split()[36])


def start_probe():
    """Fork a child that times a fixed 0.5 ms job every PROBE_PERIOD_S.

    Before each job the child moves to the CPU this process last ran on,
    so the probe sees the speed the call runs at: on a shared host a CPU
    switches between states about 40% apart every few seconds. The child
    stops when the parent closes its pipe or dies.
    """
    parent = os.getpid()
    stop_r, stop_w = os.pipe()
    out_r, out_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the child must never return into the caller's code
            os.close(stop_w)
            os.close(out_r)
            samples = []
            while True:
                os.sched_setaffinity(0, {_cpu_of(parent)})
                samples.append(_probe_job())
                if select.select([stop_r], [], [], PROBE_PERIOD_S)[0]:
                    break
            with os.fdopen(out_w, "w") as fh:
                json.dump(samples, fh)
        finally:
            os._exit(0)
    os.close(stop_r)
    os.close(out_w)
    return pid, stop_w, out_r


def stop_probe(probe) -> tuple[float, int]:
    """Stop the child; return its trimmed mean job time and sample count."""
    pid, stop_w, out_r = probe
    os.close(stop_w)
    with os.fdopen(out_r) as fh:
        samples = sorted(json.load(fh))
    os.waitpid(pid, 0)
    kept = samples[: max(1, int(len(samples) * (1.0 - PROBE_TRIM)))]
    return sum(kept) / len(kept), len(samples)


def main() -> int:
    spawn_t, result_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    cli_argv = sys.argv[4:]

    import rcpolicy.cli

    setup_s = time.monotonic() - spawn_t
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    probe = start_probe()
    try:
        t0 = time.perf_counter()
        rc = rcpolicy.cli.main(cli_argv)
        e2e_s = time.perf_counter() - t0
    finally:
        probe_s, probe_n = stop_probe(probe)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "e2e_s": e2e_s,
        "probe_s": probe_s,
        "probe_n": probe_n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rcpolicy_file": rcpolicy.cli.__file__,
    }
    if recorder is not None:
        result["layers"] = spans.summarize(recorder.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
