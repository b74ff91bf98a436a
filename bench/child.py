"""One pass of a workload, run in a fresh interpreter by ``run.py``.

The pass imports the package from the checkout's ``src``, stamps the moment
the package, a ``ParadoxInstance`` and the CLI parser are ready (the end of
set-up), then sends the workload's requests in a closed loop: each request
starts when the previous one has returned.  Each output is written to the
pass's temporary directory right after its request, outside the timed span,
and dropped, so the pass time is the sum of the request latencies and the
peak RSS holds neither accumulated outputs nor the memory of the checks:
outputs are read back and checked only after the RSS is read.  The pass
prints one JSON object on stdout.

    python3 bench/child.py --root . --workload sweep-k2 --seed 0 --tmp DIR
"""

import sys
import time

SETUP_RANK = 2


def ready(root: str) -> float:
    """Import the package from ``root/src`` and return the set-up end stamp.

    ``time.monotonic`` reads CLOCK_MONOTONIC on Linux, which all processes
    share, so the parent subtracts its own spawn stamp from this value.
    """
    import os

    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lineparadox.cli

    if not os.path.abspath(lineparadox.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"lineparadox was imported from {lineparadox.cli.__file__}, not {src}")
    lineparadox.cli.build_parser()
    lineparadox.cli.ParadoxInstance(SETUP_RANK)
    return time.monotonic()


def _execute(req: dict, tmp: str, index: int):
    """Send one request; return (exit code, output text)."""
    import contextlib
    import io
    import json
    import os

    from lineparadox import cli, freegroup, labeling, permutation, rigid

    if req["op"] == "audit":
        lab = labeling.VertexLabeling(2)
        f = rigid.PiecewiseRigidMap(permutation.TreePermutation(freegroup.Word(req["f"]), lab))
        g = rigid.PiecewiseRigidMap(permutation.TreePermutation(freegroup.Word(req["g"]), lab))
        report = rigid.rigidity_audit(rigid.compose_maps(f, g), req["lo"], req["hi"],
                                      samples=req["samples"], seed=req["seed"])
        return None, json.dumps(report.to_dict(), sort_keys=True)
    argv = list(req["argv"])
    if "out" in req:
        argv += ["--out", os.path.join(tmp, f"{index}-{req['out']}")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, buf.getvalue()


def run_pass(root: str, workload: str, seed: int, scale: str, tmp: str,
             first: bool = True, trace_out: str | None = None) -> dict:
    """Send one pass of requests, check every output, return the pass record.

    ``first`` adds the oracle comparison of a seeded label sample (done once
    per run).  ``trace_out`` turns tracing on and names the span file.
    """
    import hashlib
    import os
    import random
    import resource

    sys.path.insert(0, os.path.join(root, "tests"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks
    import workloads
    from lineparadox import freegroup, labeling

    tracer = None
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reqs = workloads.requests(workload, seed, scale)
    perf = time.perf_counter
    results = []
    for i, req in enumerate(reqs):
        t0 = perf()
        try:
            if tracer is None:
                code, text = _execute(req, tmp, i)
            else:
                tracer.request = i
                code, text = tracer.wrap("request", _execute, True)(req, tmp, i)
            error = None
        except Exception as exc:  # a request that raises is a failed op
            code, text, error = None, "", f"{type(exc).__name__}: {exc}"
        results.append((perf() - t0, code, error))
        if "out" not in req:
            with open(os.path.join(tmp, f"{i}-stdout"), "w") as fh:
                fh.write(text)
        del text
    wall = sum(latency for latency, _, _ in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = hashlib.sha256()
    failures = []
    latencies = []
    verify_labels = 0
    verify_s = 0.0
    bytes_out = 0
    for i, (req, (latency, code, error)) in enumerate(zip(reqs, results)):
        path = os.path.join(tmp, f"{i}-{req.get('out', 'stdout')}")
        text = ""
        if os.path.exists(path):  # a failed --out request may leave no file
            with open(path) as fh:
                text = fh.read() if error is None else ""
            os.remove(path)  # so no later pass reads this pass's output
        digest.update(f"{req['op']}\0{code}\0".encode())
        digest.update(text.encode())
        bytes_out += len(text.encode())
        latencies.append([req["op"], latency])
        if req["op"] == "verify":
            verify_labels += req["hi"] - req["lo"] + 1
            verify_s += latency
        if error is None:
            try:
                error = checks.CHECKS[req["op"]](req, code, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"request {i} {req.get('argv', req['op'])}: {error}")

    attempted = len(reqs)
    if first:
        rng = random.Random(f"oracle/{workload}/{seed}")
        labelings = {"2": labeling.VertexLabeling(2),
                     "omega": labeling.VertexLabeling(freegroup.OMEGA)}
        checked, mismatches = checks.oracle_sample(rng, labelings, freegroup.Word, per_rank=64)
        attempted += checked
        failures.extend(mismatches)

    record = {
        "wall_s": wall,
        "latencies": latencies,
        "verify_labels": verify_labels,
        "verify_s": verify_s,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        verifies = sum(1 for r in reqs if r["op"] == "verify")
        record["layers"] = tracer.layer_metrics(verifies, bytes_out)
        record["untraced"] = tracer.missing
        tracer.dump(trace_out)
    return record


def main(argv: list[str]) -> int:
    import argparse
    import json

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", default="full")
    p.add_argument("--tmp")
    p.add_argument("--first", action="store_true")
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    record = {"ready": ready(args.root)}
    if not args.setup_only:
        record.update(run_pass(args.root, args.workload, args.seed, args.scale, args.tmp,
                               first=args.first, trace_out=args.trace_out))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
