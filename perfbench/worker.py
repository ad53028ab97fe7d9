"""One benchmark worker: a fresh interpreter that imports omsemi from the
checkout, does the per-process set-up and runs rounds of operations.

Reads one JSON job on stdin and prints one JSON result line on stdout.
The program's own output is captured, so the result line is the only one.
Run by run.py; not meant to be started by hand.
"""

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import ref

# Host-speed calibration.  One sample builds the benchmark's own shortlex
# transition monoid of the 41-class paper language and its table, twice:
# fixed pure-Python work (tuples, dicts, lists) that no change to omsemi
# can speed up or slow down.  Timings are scaled to a host on which one
# sample takes CAL_REF_S.
CAL_REGEX = "(aabaab)*|(abbabb)*"
CAL_REPEAT = 2
CAL_REF_S = 0.005
CAL_EVERY_S = 0.05             # a sample between ops at least this often
SETUP_CAL_SAMPLES = 10         # before and after a timed set-up


class Calibration:
    """Times a fixed piece of the benchmark's own work, to follow the
    speed of the host: on a shared virtual machine the same work takes up
    to twice as long in one minute as in the next."""

    def __init__(self):
        self.dfa = ref.regex_min_dfa(CAL_REGEX)
        self.sample()

    def sample(self):
        # no cyclic collection: its cost grows with the program's heap
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(CAL_REPEAT):
                ref.TransitionSemigroup(self.dfa).table
            return time.perf_counter() - start
        finally:
            gc.enable()


def set_up(job):
    """Import omsemi and build what the operations rely on: the order <= 4
    completely regular sample with its enumeration tables, and the group
    catalogue.  Returns (seconds, tracer or None); the time excludes
    installing the tracer."""
    sys.path.insert(0, os.path.join(job["root"], "src"))
    start = time.perf_counter()
    import omsemi  # noqa: F401
    tracer = None
    if job.get("trace"):
        from spans import Tracer
        before = time.perf_counter()
        tracer = Tracer()
        tracer.install("omsemi")
        tracer.enabled = True
        tracer.op = "setup"
        start += time.perf_counter() - before
    from omsemi import groups_catalog, varieties
    varieties.cr_semigroups(4)
    groups_catalog.all_groups_up_to_24()
    return time.perf_counter() - start, tracer


class Runner:
    def __init__(self):
        from omsemi import cli, dfa, reducibility, terms
        self.cli, self.dfa = cli, dfa
        self.red, self.terms = reducibility, terms
        self.triples = {}

    def build_search_triples(self, ops):
        """The instances the bounded searches run on, built once per
        process before the warm-up round."""
        for op in ops:
            if op["kind"] == "search":
                key = tuple(op["args"]["instance"])
                if key not in self.triples:
                    regex, u, v = key
                    self.triples[key] = self.red.syntactic_solution_triple(
                        regex, {"x": "a", "y": "b"}, u, v)

    def run(self, op):
        """Run one operation; returns its output as a JSON-ready dict."""
        kind, args = op["kind"], op["args"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(args)
            return {"rc": rc, "out": out.getvalue()}
        if kind == "jplus":
            d = self.dfa.Dfa("ab", args["trans"], 0, args["accepting"])
            u = self.terms.parse_term(args["u"])
            v = self.terms.parse_term(args["v"])
            triple = self.red.syntactic_solution_triple(
                d, {"x": "a", "y": "b"}, u, v, mode="inequality")
            wu, wv = self.red.jplus_word_solution(triple, u, v)
            return {"u": wu, "v": wv}
        if kind == "search":
            pair = self.red.bounded_omega_solution_search(
                self.triples[tuple(args["instance"])], "com", args["bound"],
                tuple(args["offsets"]))
            return {"pair": pair and [self.terms.format_term(t)
                                      for t in pair]}
        raise ValueError("unknown operation kind %r" % kind)

    def attempt(self, op):
        """(seconds, output); an exception becomes {"error": its type}."""
        start = time.perf_counter()
        try:
            out = self.run(op)
        except (Exception, SystemExit) as exc:
            out = {"error": type(exc).__name__, "message": str(exc)[:200]}
        return time.perf_counter() - start, out


def _digest(out):
    return hash(json.dumps(out, sort_keys=True))


def scaled_setup(job):
    """set_up(job), with its time scaled by calibration samples taken just
    before and just after it."""
    calib = Calibration()
    before = [calib.sample() for _ in range(SETUP_CAL_SAMPLES)]
    setup_s, tracer = set_up(job)
    after = [calib.sample() for _ in range(SETUP_CAL_SAMPLES)]
    return (setup_s * CAL_REF_S / statistics.median(before + after),
            tracer, calib)


def main():
    job = json.load(sys.stdin)
    setup_s, tracer, calib = scaled_setup(job)
    result = {"setup_s": setup_s}
    if not job.get("ops"):
        print(json.dumps(result))
        return
    runner = Runner()
    ops = job["ops"]
    runner.build_search_triples(ops)
    # warm-up round: fills the program's lazy caches and gives the outputs
    # that the parent checks; the timed rounds must repeat them exactly
    if tracer:
        tracer.enabled = False
    warm = [runner.attempt(op)[1] for op in ops]
    digests = [_digest(out) for out in warm]
    latencies, mismatched, round_s = [], [], []
    # segments[k] ops ran between calibration samples cal[k] and cal[k+1]
    cal, segments, seg_start = [], [], 0
    if tracer:
        tracer.enabled = True
    else:
        cal.append(calib.sample())
    start = last_cal = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            dt, out = runner.attempt(op)
            latencies.append(dt)
            if _digest(out) != digests[i] and i not in mismatched:
                mismatched.append(i)
            if not tracer and time.perf_counter() - last_cal >= CAL_EVERY_S:
                cal.append(calib.sample())
                segments.append(len(latencies) - seg_start)
                seg_start = len(latencies)
                last_cal = time.perf_counter()
        round_s.append(time.perf_counter() - round_start)
        # a traced run does exactly one round, so its counts repeat
        if tracer or time.perf_counter() - start >= job["seconds"]:
            break
    if not tracer and len(latencies) > seg_start:
        cal.append(calib.sample())
        segments.append(len(latencies) - seg_start)
    # each op's time, scaled by the mean of the samples around its segment
    scaled = []
    for k, n in enumerate(segments):
        factor = 2 * CAL_REF_S / (cal[k] + cal[k + 1])
        scaled += [dt * factor
                   for dt in latencies[len(scaled):len(scaled) + n]]
    result.update(
        round_s=round_s, latencies=scaled, cal_s=cal,
        outputs=warm, mismatched=mismatched,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    if tracer:
        tracer.enabled = False
        result["layers"] = tracer.layer_metrics()
        tracer.write(job["trace_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
