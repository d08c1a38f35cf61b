"""Control-plane message accounting across protocols (extension).

The paper prices protocol overhead in reconnections (Fig. 10); this
experiment additionally reports the control messages behind the same runs
— join/accept traffic, BTP queries, lock rounds, switch commits and
referee maintenance — normalised per member session.  ROST's referee
heartbeats are counted analytically (constant-rate background traffic).
"""

from __future__ import annotations

from ..metrics.report import render_table
from ..overlay.messages import MessageType
from .common import DEFAULT_SINGLE_SIZE, PROTOCOL_ORDER
from .fig05_cdf import column_units
from .registry import ExperimentResult, register

#: Message categories shown as columns (others are summed into "other").
COLUMNS = (
    MessageType.JOIN,
    MessageType.ACCEPT,
    MessageType.REJECT,
    MessageType.BTP_QUERY,
    MessageType.LOCK_REQUEST,
    MessageType.SWITCH_COMMIT,
    MessageType.REFEREE_ASSIGN,
    MessageType.REFEREE_QUERY,
)


@register(
    "control-messages",
    "Control messages per member session, by protocol",
    "Extension",
    units=column_units,
)
def run(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    rows = []
    data = {}
    for protocol, result in zip(PROTOCOL_ORDER, results):
        sessions = max(1, result.sessions_total)
        counts = result.messages.counts
        shown = {mt: counts[mt] / sessions for mt in COLUMNS}
        other = (
            sum(counts.values()) - sum(counts[mt] for mt in COLUMNS)
        ) / sessions
        rows.append(
            [protocol, *[shown[mt] for mt in COLUMNS], other,
             result.messages.total / sessions]
        )
        data[protocol] = {
            **{mt.value: shown[mt] for mt in COLUMNS},
            "other": other,
            "total": result.messages.total / sessions,
        }
    table = render_table(
        f"Control messages per member session "
        f"(population {population}, scale {scale:g})",
        ["protocol", *[mt.value for mt in COLUMNS], "other", "total"],
        rows,
        precision=2,
    )
    return ExperimentResult(
        experiment_id="control-messages",
        title="Control messages per member session",
        table=table,
        data=data,
    )
