"""Metric math of the end-to-end benchmark.

Turns the raw document printed by mdst_perfbench (per-trial counts and
times, per-pass wall times, set-up times, reference samples) and, for
traced runs, its span file into the metrics named in BENCHMARK.json. Kept
free of I/O so that perfbench/tests/test_metrics.py can pin every rule.

Every time is reported at reference speed. The program interleaves samples
of a fixed unit of reference work (perfbench/reference.cpp) with the timed
work, a sample after every 50 ms of it, and pairs each measured time with
the mean of the two samples around it. The time is reported as
measured x REFERENCE_MS / that mean. On a host that runs the unit in
REFERENCE_MS the reported time is the measured one; when the shared host
slows down for a while it slows the unit with it, and the reported time
stays put.
"""

import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; p90 therefore needs 100 trials.
TAIL_SAMPLES_BEYOND = 10

# The speed every reported time is scaled to: about what the reference unit
# takes on an unloaded 4-vCPU Xeon host (GCC 12.2, -O2).
REFERENCE_MS = 4.3

# Trial statuses written by mdst_perfbench. Only "ok" counts towards
# ok_frac: a trial that threw (for example at the message cap), wedged, or
# failed the correctness check counts against it.
OK = "ok"


def percentile(values, pct):
    """The pct-th percentile (0..100) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values, pct):
    """The pct-th percentile, or None when fewer than TAIL_SAMPLES_BEYOND
    samples lie beyond it (p90 needs 100 samples, p99 needs 1000)."""
    if len(values) * (100 - pct) < TAIL_SAMPLES_BEYOND * 100:
        return None
    return percentile(values, pct)


def ok_frac(trials):
    """Trials that ended ok/re_rooted/recovered and passed the check, over
    the trials attempted."""
    if not trials:
        raise ValueError("no trials attempted")
    return sum(t["status"] == OK for t in trials) / len(trials)


def segment_reference_ms(samples, segment):
    """The reference unit's time during a segment: the mean of the two
    samples around it."""
    return (samples[segment] + samples[segment + 1]) / 2


def scaled(times, segments, samples):
    """times[i], measured in reference segment segments[i], at reference
    speed."""
    if len(times) != len(segments):
        raise ValueError(f"{len(times)} times for {len(segments)} segments")
    return [t * REFERENCE_MS / segment_reference_ms(samples, k)
            for t, k in zip(times, segments)]


def trial_times_ms(raw):
    """Per trial and timed pass, its time at reference speed."""
    return [scaled(t["ms"], t["segment"], raw["reference_ms"])
            for t in raw["trials"]]


def pass_totals(per_trial):
    """Per pass, the sum of its trials' times."""
    return [sum(times) for times in zip(*per_trial)]


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(raw):
    """The end-to-end metrics of an untraced run.

    Returns (metrics, notes): metrics maps name -> (value, unit); notes maps
    a metric name to why its value is not what the name says.
    """
    trials = raw["trials"]
    ran = [t for t in trials if t["status"] != "threw"]
    per_pass = trial_times_ms(raw)
    # One sample per trial: the median of its timed passes.
    times = [statistics.median(t) for t in per_pass]
    wall_s = statistics.median(pass_totals(per_pass)) / 1000
    messages = sum(t["startup_msgs"] + t["mdst_msgs"] for t in ran)
    p50 = statistics.median(times)
    p90 = tail_percentile(times, 90)
    notes = {}
    if p90 is None:
        notes["trial_p90_ms"] = (
            f"p90 omitted: {len(times)} trials < 100; the median is carried")
        p90 = p50
    ok_trials = [t for t in trials if t["status"] == OK]
    metrics = {
        "setup_s": (statistics.median(
            sum(scaled(ms, segments, raw["reference_ms"])) for ms, segments in
            zip(raw["setup_ms"], raw["setup_segment"])) / 1000, "s"),
        "wall_s": (wall_s, "s"),
        "msgs_per_s": (messages / wall_s, "msgs/s"),
        "trial_p50_ms": (p50, "ms"),
        "trial_p90_ms": (p90, "ms"),
        "peak_rss_mb": (raw["peak_rss_bytes"] / 1e6, "MB"),
        "ok_frac": (ok_frac(trials), "share"),
        "mean_gap": (_mean(t["k_final"] - t["lower_bound"] for t in ok_trials),
                     "degree"),
        "sim_msgs_per_trial": (_mean(t["startup_msgs"] + t["mdst_msgs"]
                                     for t in ran), "msgs"),
        "sim_time_per_trial": (_mean(t["startup_time"] + t["mdst_time"]
                                     for t in ran), "ticks"),
    }
    return metrics, notes


def layer_ms(spans, samples):
    """Total span time per layer, in ms at reference speed (a span is scaled
    by its trial's reference segment)."""
    totals = {}
    for s in spans:
        ms = (s["end_ms"] - s["start_ms"]) * REFERENCE_MS / segment_reference_ms(
            samples, s["segment"])
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + ms
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw, spans):
    """The per-layer metrics of a traced run: span times from `spans`,
    counts from the untraced pass's trial records (the traced pass must
    repeat them exactly; mdst_perfbench checks that)."""
    trials = raw["trials"]
    ran = [t for t in trials if t["status"] != "threw"]
    executions = sum(s["layer"] == "trial" for s in spans)
    ms = layer_ms(spans, raw["reference_ms"])
    per_exec = {layer: total / executions for layer, total in ms.items()}
    work = sum(ms.get(layer, 0.0) for layer in
               ("graph.build", "mdst.bound", "spanning.startup", "mdst.run"))
    mdst_msgs = sum(t["mdst_msgs"] for t in ran)
    mdst_msgs_executed = mdst_msgs * executions / len(trials)
    healthy = [t for t in ran if t["faults"] == "none"]
    untraced = statistics.median(pass_totals(trial_times_ms(raw)))
    traced = statistics.median(pass_totals(
        scaled(t["traced_ms"], t["traced_segment"], raw["reference_ms"])
        for t in trials))
    return {
        "graph.build_ms": (per_exec.get("graph.build", 0.0), "ms"),
        "mdst.bound_ms": (per_exec.get("mdst.bound", 0.0), "ms"),
        "spanning.startup_ms": (per_exec.get("spanning.startup", 0.0), "ms"),
        "spanning.msgs_per_trial": (_mean(t["startup_msgs"] for t in ran), "msgs"),
        "mdst.run_ms": (per_exec.get("mdst.run", 0.0), "ms"),
        "mdst.run_share": (_ratio(ms.get("mdst.run", 0.0), work), "share"),
        "mdst.msgs_per_s": (_ratio(mdst_msgs_executed,
                                   ms.get("mdst.run", 0.0) / 1000), "msgs/s"),
        "mdst.rounds_per_trial": (_mean(t["rounds"] for t in ran), "rounds"),
        "mdst.improve_frac": (_ratio(sum(t["improvements"] for t in ran),
                                     sum(t["rounds"] for t in ran)), "share"),
        "mdst.recovery_msg_share": (_ratio(sum(t["recovery_msgs"] for t in ran),
                                           mdst_msgs), "share"),
        "mdst.false_re_elections": (_mean(t["re_elections"] for t in healthy),
                                    "per_trial"),
        "mdst.re_elections_per_trial": (_mean(t["re_elections"] for t in ran),
                                        "per_trial"),
        "mdst.node_bytes_per_node": (_ratio(sum(t["node_bytes"] for t in ran),
                                            sum(t["n"] for t in ran)), "B"),
        "runtime.retransmit_frac": (_ratio(sum(t["retransmits"] for t in ran),
                                           mdst_msgs), "share"),
        "runtime.dropped_per_trial": (_mean(t["dropped"] for t in ran), "per_trial"),
        "runtime.queue_bytes": (max((t["queue_bytes"] for t in ran), default=0), "B"),
        "runtime.floor_bytes": (max((t["floor_bytes"] for t in ran), default=0), "B"),
        "runtime.metrics_bytes": (max((t["metrics_bytes"] for t in ran), default=0),
                                  "B"),
        "mdst.oracle_ms": (per_exec.get("mdst.oracle", 0.0), "ms"),
        "mdst.witness_frac": (_ratio(sum(t["witness"] for t in trials
                                         if t["status"] == OK),
                                     sum(t["status"] == OK for t in trials)),
                              "share"),
        "trace.overhead_frac": (traced / untraced - 1, "share"),
    }
