"""Order-based baselines: PPM-C and a PST-style predictor.

Both see the stream as a sequence of channel ids in event-time order,
simultaneous events by ascending channel, with dropped events left out;
`runner.run_vmm` feeds them. PPM-C blends context statistics from the
longest matched context down to an order -1 uniform using escape method C
(no exclusion). The PST baseline answers only from the longest matched
context and declines to estimate when that context was seen fewer than
`min_frequency` times; declining is scored as maximum error by the
harness.
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

    def predict(self) -> Optional[np.ndarray]:
        """Distribution over the symbol after the history, or None for the
        PST's no-estimate case."""
        ctx = tuple(self.history)
        if self.kind == "ppmc":
            return self._ppmc(ctx)
        return self._pst(ctx)

    def _ppmc(self, ctx: Tuple[int, ...]) -> np.ndarray:
        out = np.zeros(self.num_channels)
        weight = 1.0
        for k in range(len(ctx), -1, -1):
            table = self.counts.get(ctx[len(ctx) - k:])
            if not table:
                continue
            total = sum(table.values())
            distinct = len(table)
            denom = total + distinct
            for sym, cnt in table.items():
                out[sym] += weight * cnt / denom
            weight *= distinct / denom
        out += weight / self.num_channels
        return out

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

