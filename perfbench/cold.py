"""``cold_jobs``: closed-loop callers running distinct specs against fresh
stores, in process, with no service in between.

Two load points: ``low`` is one in-process caller, ``high`` is one caller
per CPU, each in a fresh interpreter of its own (this file run as a script,
so nothing is inherited but the arguments).  Every caller waits for a job before it starts the next.  The
two load points alternate in slices, never overlapping.
Each pass over the catalogue gets a fresh store, so every job misses the
cache: spec build, digest, the passes, verify, synthesis and store writes
do all the work.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import catalogue
import tracing
from env import SRC, WORK

#: An untimed job each caller runs first, so lazy set-up inside the engine
#: (numpy buffers, first-use imports) is not charged to the first timed job.
WARM_UP = {"kind": "decompose", "circuit": "comparator", "width": 12,
           "options": {"k": 4, "use_identities": True}, "verify": False}

#: What a caller must load before it can run a job: the worker body and the
#: cell library synthesis jobs use.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from repro.service.jobs import execute_job; "
    "from repro.synth import default_library; default_library(); "
    "print('ready', flush=True)"
)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process, in MB (``VmHWM``); 0 for a
    process that has exited."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_mb(path: Path, pattern: str = "**/*") -> float:
    """MB of the regular files under ``path`` matching ``pattern``."""
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file()) / 1e6


def measure_setup(times: int) -> List[float]:
    """Seconds from launching a fresh interpreter until it can run a job."""
    samples = []
    for _ in range(times):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return samples


class Caller:
    """One closed-loop caller: its share of a seeded job stream, run in
    slices.  Every ``callers``-th job of the stream is this caller's."""

    def __init__(self, table: dict, stream: str, caller: int, callers: int,
                 store_root: str, trace: bool) -> None:
        from repro.service import jobs

        if trace:
            tracing.install()
        self.jobs = jobs
        self.trace = trace
        self.root = Path(store_root)
        self.share = self._share(catalogue.cold_passes(table, stream), caller, callers)
        jobs.execute_job(jobs.parse_job_spec(WARM_UP).payload(),
                         str(self.root / f"warm-up-{caller}"))
        if trace:
            tracing.tracer().spans.clear()
            tracing.tracer().counters.clear()

    @staticmethod
    def _share(passes, caller: int, callers: int):
        index = 0
        for pass_no, specs in enumerate(passes):
            for spec in specs:
                if index % callers == caller:
                    yield pass_no, spec
                index += 1

    def run_for(self, seconds: float) -> dict:
        """Start jobs until ``seconds`` pass; the job running then finishes."""
        records = []
        start = end = time.perf_counter()
        while end - start < seconds:
            pass_no, spec = next(self.share)
            payload = self.jobs.parse_job_spec(spec).payload()
            t0 = time.perf_counter()
            try:
                result = self.jobs.execute_job(payload, str(self.root / f"pass-{pass_no}"))
                error = None
            except Exception as exc:  # the gate counts it; the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            records.append({"spec": spec, "seconds": end - t0, "result": result,
                            "error": error})
        return {"jobs": records, "seconds": end - start}

    def finish(self) -> dict:
        return {"peak_rss_mb": vm_hwm_mb(),
                "trace": tracing.tracer().payload() if self.trace else None}


class Remote:
    """A ``high`` caller in a fresh interpreter, driven over its stdin and
    stdout with pickled messages: its arguments, then one slice length per
    slice, then None to finish.  It answers "ready", each slice's record
    and :meth:`Caller.finish`.  Plain ``subprocess`` rather than
    ``multiprocessing``, so no helper process outlives the run."""

    def __init__(self, *args) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.send(args)
        except BaseException:
            self.stop()
            raise

    def send(self, message) -> None:
        pickle.dump(message, self.proc.stdin)
        self.proc.stdin.flush()

    def recv(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(f"a high caller exited with {self.proc.wait()}") from None

    def stop(self) -> None:
        """Close its pipes (a caller stops at end of input) and wait until it
        has exited; kill it if it has not within a minute."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _caller_main() -> None:
    """The body of a :class:`Remote` caller."""
    inbox = sys.stdin.buffer
    outbox = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())  # stray prints go to stderr

    def send(message) -> None:
        pickle.dump(message, outbox)
        outbox.flush()

    try:
        caller = Caller(*pickle.load(inbox))
        send("ready")
        while (seconds := pickle.load(inbox)) is not None:
            send(caller.run_for(seconds))
        send(caller.finish())
    except (EOFError, BrokenPipeError):
        pass  # the parent stopped early; it reports why


#: Share of ``--seconds`` the one-caller load point gets.  One caller runs
#: about half as many jobs per second as two, so with two thirds of the
#: time both load points run about the same number of passes (two at
#: ``--seconds 50`` on two cores): enough jobs that ten samples beyond the
#: tail lie inside the comparator jobs.
LOW_SHARE = 2 / 3
#: Each load point runs in this many slices, alternating with the other's.
SLICES = 4


def run(table: dict, seed: int, seconds: float, trace: bool, callers: int,
        setups: int) -> dict:
    """Both load points, in :data:`SLICES` alternating slices each, so both
    sample the machine over the whole run.  ``setups`` set-up probes are
    spread over the gaps before, between and after the slices, while no
    caller is working."""
    low_root, high_root = WORK / "cold-low", WORK / "cold-high"
    remotes: List[Remote] = []
    phases = {name: {"jobs": [], "seconds": 0.0} for name in ("low", "high")}
    gaps = SLICES + 1
    probes = [setups // gaps + (index < setups % gaps) for index in range(gaps)]
    setup = []
    try:
        for index in range(callers):
            remotes.append(Remote(table, f"cold-high-{seed}", index, callers,
                                  str(high_root), trace))
        low = Caller(table, f"cold-low-{seed}", 0, 1, str(low_root), trace)
        for remote in remotes:
            if remote.recv() != "ready":
                raise RuntimeError("a high caller failed to start")
        for index in range(SLICES):
            setup += measure_setup(probes[index])
            part = low.run_for(seconds * LOW_SHARE / SLICES)
            phases["low"]["jobs"] += part["jobs"]
            phases["low"]["seconds"] += part["seconds"]
            for remote in remotes:
                remote.send(seconds * (1 - LOW_SHARE) / SLICES)
            parts = [remote.recv() for remote in remotes]
            phases["high"]["jobs"] += [job for part in parts for job in part["jobs"]]
            phases["high"]["seconds"] += max(part["seconds"] for part in parts)
        setup += measure_setup(probes[-1])
        for remote in remotes:
            remote.send(None)
        ends = [remote.recv() for remote in remotes]
        store_mb = tree_mb(low_root, "pass-*/**/*") + tree_mb(high_root, "pass-*/**/*")
    finally:
        for remote in remotes:
            remote.stop()
        shutil.rmtree(low_root, ignore_errors=True)
        shutil.rmtree(high_root, ignore_errors=True)
    ends.append(low.finish())
    phases["low"]["trace"] = [ends[-1]["trace"]] if trace else []
    phases["high"]["trace"] = [end["trace"] for end in ends[:-1]] if trace else []
    return {"phases": phases, "store_mb": store_mb, "setup": setup,
            "peak_rss_mb": max(end["peak_rss_mb"] for end in ends)}


if __name__ == "__main__":
    _caller_main()
