"""Flat baseline defense: isolation tables kept by low-energy member monitors.

The baseline keeps the cluster layer but nothing below it. A fixed share of
each cluster's members, chosen from the lowest-energy ones, stays awake to
watch its neighbors with the same four anomaly rules. One strike lands a
node in the isolation table for good: no observation window, no
rehabilitation, and no re-election when a role holder dies.
"""

from __future__ import annotations

from .config import ItidsConfig  # declared with every section
from .core import is_alive


def select_monitors(cluster, by_id, fraction: float) -> tuple:
    """Pick the cluster's monitors from its lowest-energy members.

    Members are ranked by residual energy ascending (ids break ties) and
    the bottom `fraction` share takes monitoring duty. At least one member
    monitors whenever the cluster has members at all. `by_id` maps node id
    to node.
    """
    members = sorted(
        (m for m in cluster.members if is_alive(by_id[m])),
        key=lambda m: (by_id[m].energy.residual_energy, m),
    )
    if not members:
        return ()
    count = max(1, int(fraction * len(members)))
    return tuple(sorted(members[:count]))
