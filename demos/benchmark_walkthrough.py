"""One benchmark run end to end: build the structured-interference stream,
run the event-based predictor and the PPM-C baseline, and print the binned
error traces side by side.

Run: python3 demos/benchmark_walkthrough.py   (about 10 seconds)
"""

from epst import EpstParams, load_scenario, run_epst, run_vmm, score_epst, score_vmm

scenario = load_scenario("structured_same")
stream = scenario.build_stream(seed=0)
print(
    f"scenario {scenario.scenario_id}: {len(stream)} events over "
    f"{stream.events[-1].time} steps, interference in "
    f"{scenario.interference_intervals}"
)

epst_run = run_epst(stream, EpstParams())
epst_trace = score_epst(epst_run, stream, scenario.scoring_mode)
vmm_trace = score_vmm(run_vmm(stream, "ppmc"), scenario.scoring_mode)

print(f"{'bin':>6s} {'epst':>8s} {'ppmc':>8s}")
for (start, e_mean, e_n), (_, v_mean, _) in zip(epst_trace.bins, vmm_trace.bins):
    marker = " <- interference" if any(
        lo <= start < hi for lo, hi in scenario.interference_intervals
    ) else ""
    print(f"{start:6d} {e_mean:8.3f} {v_mean:8.3f}{marker}")

print()
print("note how the baseline degrades inside the interference intervals")
print("while the event-based predictor re-recognizes the repeated pattern.")
