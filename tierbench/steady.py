#!/usr/bin/env python3
"""Steadiness report for the tier benchmark.

Runs every workload of BENCHMARK.json ten times, each with another seed,
then a second set of ten, with the settings BENCHMARK.json gives. For
each set and every end-to-end metric it reports the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the
spread: the distance between the quartiles as a share of the median. It
then compares the two sets' medians: the drift is how much worse the
second median is than the first, as a share of the first.

A metric is steady when its spread, in both sets, and its drift stay
within its bound; the report lists every metric that does not, setup_s
included. Run it from the repository root; it takes 30 to 50 minutes on
a 2-vCPU host and writes STEADINESS.md (the report) and STEADINESS.json
(every run's figures) next to itself:

    python3 tierbench/steady.py
"""
import json
import os
import statistics
import subprocess
import sys
import time

SEEDS = 10
SETS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next((l[len("host "):] for l in lines if l.startswith("host ")), "{}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: run failed: {res}")
    return {m: v["value"] for m, v in res["metrics"].items()}, json.loads(host), elapsed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    raw = {"run_seconds": bench["run_seconds"], "sets": []}
    for s in range(SETS):
        first = 1 + s * SEEDS
        runs = {}
        raw["sets"].append({"seeds": [first, first + SEEDS - 1], "runs": runs})
        for name in names:
            for seed in range(first, first + SEEDS):
                values, host, elapsed = run_once(bench["command"], name, seed, bench["run_seconds"])
                host.pop("seed", None)
                runs.setdefault(name, {"host": host, "runs": []})["runs"].append(
                    {"seed": seed, "elapsed_s": round(elapsed, 1), "metrics": values})
                print(f"set {s + 1} {name} seed {seed}: {elapsed:.1f} s", flush=True)
                with open(os.path.join(HERE, "STEADINESS.json"), "w") as f:
                    json.dump(raw, f, indent=1)
                    f.write("\n")

    out = ["# Steadiness of the tier benchmark", "",
           "Generated by `python3 tierbench/steady.py` from the runs in `STEADINESS.json`:",
           f"{SETS} sets of {SEEDS} runs of every workload, {bench['run_seconds']} s each, the sets one after",
           "the other. The spread is (q3 - q1) / median; the drift is how much worse the",
           "second set's median is than the first's, as a share of the first (negative:",
           "better). A metric is steady when both spreads and the drift stay within its",
           "bound.", ""]
    unsteady = []
    for name in names:
        sets = [st["runs"][name] for st in raw["sets"]]
        out.append(f"## {name}\n")
        out.append(f"Host: `{json.dumps(sets[0]['host'], sort_keys=True)}`\n")
        out.append("Seconds per run, with set-up and build: " + ", ".join(
            f"set {i + 1} {statistics.mean(r['elapsed_s'] for r in st['runs']):.1f} on average"
            for i, st in enumerate(sets)) + ".\n")
        head = "| metric | bound |"
        for i in range(SETS):
            head += f" median {i + 1} | q1 {i + 1} | q3 {i + 1} | spread {i + 1} |"
        out += [head + " drift | spread/bound (worst) |",
                "|---|---|" + "---|---|---|---|" * SETS + "---|---|"]
        for m in metrics:
            row = f"| {m['name']} | {m['bound']} |"
            meds, spreads = [], []
            for st in sets:
                med, q1, q3, spread = summary([r["metrics"][m["name"]] for r in st["runs"]])
                meds.append(med)
                spreads.append(spread)
                row += f" {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |"
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (meds[1] - meds[0]) / meds[0]
            out.append(row + f" {drift:+.4f} | {max(spreads) / m['bound']:.2f} |")
            if max(spreads) > m["bound"]:
                unsteady.append(f"{name} {m['name']}: spread {max(spreads):.4f} > bound {m['bound']}")
            if drift > m["bound"]:
                unsteady.append(f"{name} {m['name']}: drift {drift:+.4f} > bound {m['bound']}")
        out.append("")
    out.append("## Verdict\n")
    if unsteady:
        out += ["Not steady:", ""] + [f"- {u}" for u in unsteady]
    else:
        out.append("Every spread and every drift is within its bound.")
    report = "\n".join(out) + "\n"
    with open(os.path.join(HERE, "STEADINESS.md"), "w") as f:
        f.write(report)
    print(report)


if __name__ == "__main__":
    main()
