"""One benchmark process: runs a ``solidql`` command in-process with hooks.

Usage: ``python3 bench/worker.py SPEC.json``. The spec names the source
tree, the command line, the hook kind and where to write the stats. The
hooks only take time stamps at the command's first item (set-up ends
there) and, for ``solidql run``, around each ``run_item`` call; with
``trace`` set the process also records spans (see ``spans.py``). In
``setup`` mode the process stops when the first item starts.

``solidql eval`` and ``solidql index`` run as whole commands, one after
the other in the same process, each to a fresh output directory, at
least twice and until the command boundary nearest ``seconds``.

``solidql run`` is stopped like an interrupted batch: after at least two
whole rounds of items, at the round boundary nearest ``seconds``, the
hook raises a ``BaseException`` that the pipeline's per-item error
handling does not catch. Items completed before it are kept in the stats.

Before set-up, before each item or command and after the last one, the
process times a fixed pure-Python reference loop (``reference_sample``);
``run.py`` scales each timed unit by the host speed those samples show.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``getrusage`` is not used: across ``exec`` Linux carries the parent's
    high-water mark into ``ru_maxrss``, so it would report the memory of
    ``run.py`` instead of the command's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


REF_CALLS = 4  # reference_work calls per sample


def reference_work() -> int:
    """Fixed pure-Python work of the kind the program does (string keys, dict
    updates, integer arithmetic): about 12 ms on an idle 2-vCPU Xeon virtual
    machine under Python 3.11."""
    table: dict[str, int] = {}
    total = 0
    for i in range(40000):
        key = "k" + str(i % 509)
        table[key] = table.get(key, 0) + i
        total += len(key) * (i & 7)
    return total + len(table)


def reference_sample() -> float:
    """Seconds per ``reference_work`` call, averaged over one sample."""
    t0 = time.perf_counter()
    for _ in range(REF_CALLS):
        reference_work()
    return (time.perf_counter() - t0) / REF_CALLS


def enough(units: int, elapsed: float, last: float, seconds: float) -> bool:
    """Stop after at least two whole units, at the boundary nearest ``seconds``."""
    return units >= 2 and elapsed >= seconds - last / 2


class Deadline(BaseException):
    """Ends a measured ``solidql run`` at a round boundary, or a set-up-only process."""


def main(spec_path: str) -> int:
    # One CPU for the command and its helper threads: the workloads are
    # single-threaded, and thread wake-ups and migrations across CPUs made
    # the thread-per-query eval path swing with the other CPU's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ref_start = time.perf_counter()
    reference_work()  # the first call in a fresh process runs slower than the host
    ref_s = [reference_sample()]
    ref_in_setup = time.perf_counter() - ref_start  # not counted as set-up time
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from solidql import cli, pipeline

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()

    # ref_s[0] is sampled at process start and ref_s[1] when set-up ends (for
    # eval and index: before the first command); timed unit k (an item or a
    # command) runs between ref_s[k + 1] and ref_s[k + 2].
    stats: dict = {"setup_end": None, "item_s": [], "slot_s": [], "results": [], "measured_s": 0.0,
                   "commands": [], "ref_s": ref_s}
    workdir = Path(spec["workdir"])
    seconds = spec.get("seconds")

    def sample() -> None:
        nonlocal ref_in_setup
        t0 = time.perf_counter()
        ref_s.append(reference_sample())
        if stats["setup_end"] is None:
            ref_in_setup += time.perf_counter() - t0

    def first_item() -> None:
        stats["setup_end"] = time.monotonic()
        stats["setup_ref_s"] = ref_in_setup
        if spec["mode"] == "setup":
            sample()
            raise Deadline

    def argv(out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in spec["argv"]]

    if spec["hook"] == "run":
        run_item = pipeline.run_item
        round_size = spec["round_size"]
        round_starts: list[float] = []
        item_start = 0.0

        def timed_run_item(*args, **kwargs):
            nonlocal item_start
            entry = time.perf_counter()
            if not round_starts:
                first_item()
            else:  # the previous item's slot (the item and the pipeline's work after it) ends here
                stats["slot_s"].append(entry - item_start)
            sample()
            t0 = item_start = time.perf_counter()
            if len(stats["item_s"]) % round_size == 0:
                round_starts.append(t0)
            result = run_item(*args, **kwargs)
            t1 = time.perf_counter()
            stats["item_s"].append(t1 - t0)
            stats["results"].append(result.to_dict())
            stats["measured_s"] = t1 - round_starts[0]
            if (seconds is not None and len(stats["item_s"]) % round_size == 0
                    and enough(len(round_starts), stats["measured_s"], t1 - round_starts[-1], seconds)):
                stats["slot_s"].append(t1 - t0)
                sample()
                raise Deadline
            return result

        pipeline.run_item = timed_run_item
        try:
            stats["rc"] = cli.main(argv(workdir))
        except Deadline:
            stats["rc"] = "deadline"
        if len(stats["slot_s"]) < len(stats["item_s"]):  # the dataset ended first
            stats["slot_s"].append(stats["item_s"][-1])
            sample()
    else:
        # eval: set-up ends when scoring starts; index: at the first pool item's parse
        name = "evaluate" if spec["hook"] == "eval" else "parse_sql"
        original = getattr(cli, name)

        def stamp(*args, **kwargs):
            setattr(cli, name, original)
            first_item()
            return original(*args, **kwargs)

        setattr(cli, name, stamp)
        start = time.perf_counter()
        try:
            while True:  # the whole command, again and again, each time to a fresh output
                out = workdir / f"{len(stats['commands']):03d}"
                out.mkdir()
                sample()
                t0 = time.perf_counter()
                rc = cli.main(argv(out))
                t1 = time.perf_counter()
                stats["commands"].append({"rc": rc, "s": t1 - t0, "out": str(out)})
                if enough(len(stats["commands"]), t1 - start, t1 - t0, seconds or 0.0):
                    sample()
                    break
        except Deadline:
            pass
    stats["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["spans"])
        stats["trace"] = tracer.summary()
    Path(spec["stats"]).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
