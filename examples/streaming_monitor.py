"""Streaming monitor: detect a drifting subgroup in a live stream.

Replays the COMPAS dataset as a shuffled stream of prediction batches
through :class:`repro.stream.DivergenceMonitor`, with a synthetic drift
injected halfway: from that point on, the false-positive outcomes of
the ``race=African-American`` subgroup are flipped upward. Every window
is re-mined as it completes (built from its own rows, never from the
whole history), aligned with its predecessor by canonical itemset key, and scored for
divergence shifts — the alert timeline shows the injected subgroup
surfacing within a window of the injection.

Run:  python examples/streaming_monitor.py
"""

from repro.stream import DriftConfig, DriftInjection, replay

PATTERN = "race=African-American"


def main() -> None:
    report = replay(
        "compas",
        metric="fpr",
        batch_size=512,
        window=1024,
        drift=DriftConfig(min_delta=0.3, min_t=8.0, churn_threshold=1.5),
        injection=DriftInjection(PATTERN, at_fraction=0.5),
        seed=0,
    )
    monitor = report.monitor
    print(
        f"streamed {report.n_rows} rows in {report.n_batches} batches "
        f"-> {len(monitor.windows)} windows of {monitor.policy.size}"
    )
    print(
        f"injected drift into '{report.injected_pattern}' at row "
        f"{report.injection_row} (lands in window "
        f"{report.injection_window}); {report.injected_rows} outcomes flipped"
    )

    print("\nwindow timeline:")
    for stats in monitor.windows:
        fired = [a for a in monitor.alerts if a.window_index == stats.index]
        marker = f"  <- {len(fired)} alerts" if fired else ""
        top_name, top_div = stats.top[0]
        print(
            f"  window {stats.index} [{stats.start:>5}, {stats.stop:>5}) "
            f"rate={stats.global_rate:.3f} "
            f"top=({top_name}, {top_div:+.3f}){marker}"
        )

    print("\ndrift alerts:")
    for alert in monitor.alerts:
        print(
            f"  window {alert.window_index}: {alert.itemset} "
            f"Δ {alert.prev_divergence:+.3f} -> {alert.cur_divergence:+.3f} "
            f"(delta {alert.delta:+.3f}, t={alert.t_statistic:.1f})"
        )

    detected = report.detection_window()
    if detected is None:
        print("\ninjected drift NOT detected")
    else:
        lag = detected - (report.injection_window or 0)
        print(
            f"\ninjected drift detected in window {detected} "
            f"(lag {lag} windows, {len(report.matching_alerts())} alerts "
            "name the subgroup or a lattice neighbor)"
        )


if __name__ == "__main__":
    main()
