"""Order-based baselines: PPM-C and a PST-style predictor.

Both see the stream as a sequence of channel ids in event-time order,
simultaneous events by ascending channel, with dropped events left out;
`runner.run_vmm` feeds them and reads one symbol's probability per event
(`VmmModel.probability`). PPM-C blends context statistics from the longest
matched context down to an order -1 uniform using escape method C (no
exclusion); `probability` is its one formula, computed for the scored
symbol alone, and the full distribution is that formula over every symbol.
The PST baseline answers only from the longest matched context and
declines to estimate when that context was seen fewer than `min_frequency`
times; declining is scored as maximum error by the harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

PST_SMOOTHING_DENOM_FACTOR = 2  # gamma = 1 / (2C)


class VmmModel:
    """Shared context-count store for both baselines."""

    def __init__(self, kind: str, num_channels: int, max_order: int = 8, min_frequency: int = 3):
        if kind not in ("ppmc", "pst"):
            raise ValueError(f"unknown VMM kind {kind!r}")
        self.kind = kind
        self.num_channels = num_channels
        self.max_order = max_order
        self.min_frequency = min_frequency
        # context tuple -> {next symbol: count}
        self.counts: Dict[Tuple[int, ...], Dict[int, int]] = {}
        self.history: List[int] = []

    def update(self, symbol: int) -> None:
        """Count `symbol` after every context suffix of length 0..max_order."""
        h = self.history
        for k in range(0, min(self.max_order, len(h)) + 1):
            ctx = tuple(h[len(h) - k:])
            table = self.counts.setdefault(ctx, {})
            table[symbol] = table.get(symbol, 0) + 1
        h.append(symbol)
        if len(h) > self.max_order:
            del h[: len(h) - self.max_order]

    def probability(self, symbol: int) -> Optional[float]:
        """Probability of `symbol` after the history, or None for the PST's
        no-estimate case. For PPM-C this is the one formula: each matched
        context, longest first, adds its escape-weighted share of `symbol`,
        and the order -1 uniform takes the weight left over."""
        ctx = tuple(self.history)
        if self.kind == "pst":
            dist = self._pst(ctx)
            return None if dist is None else float(dist[symbol])
        p = 0.0
        weight = 1.0
        for k in range(len(ctx), -1, -1):
            table = self.counts.get(ctx[len(ctx) - k:])
            if not table:
                continue
            denom = sum(table.values()) + len(table)
            p += weight * table.get(symbol, 0) / denom
            weight *= len(table) / denom
        return p + weight / self.num_channels

    def predict(self) -> Optional[np.ndarray]:
        """Distribution over the symbol after the history, or None for the
        PST's no-estimate case."""
        if self.kind == "ppmc":
            return np.array([self.probability(s) for s in range(self.num_channels)])
        return self._pst(tuple(self.history))

    def _pst(self, ctx: Tuple[int, ...]) -> Optional[np.ndarray]:
        for k in range(len(ctx), -1, -1):
            table = self.counts.get(ctx[len(ctx) - k:])
            if not table:
                continue
            total = sum(table.values())
            if total < self.min_frequency:
                return None
            gamma = 1.0 / (PST_SMOOTHING_DENOM_FACTOR * self.num_channels)
            out = np.full(self.num_channels, gamma)
            for sym, cnt in table.items():
                out[sym] += cnt
            return out / out.sum()
        return None

