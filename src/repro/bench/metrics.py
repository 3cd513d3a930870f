"""Result containers, table formatting, and JSON serialization.

:meth:`ExperimentResult.to_dict` feeds the ``BENCH_smoke.json`` artifact
that ``python -m repro.bench --smoke`` emits: a per-experiment summary of
the simulated-millisecond columns, so successive changes leave a perf
trajectory that can be diffed across commits.
"""

from __future__ import annotations

from dataclasses import dataclass


def _jsonable(value):
    """Coerce a cell to a JSON-serializable value (LSNs etc. become str)."""

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass
class ExperimentResult:
    """The outcome of one reproduced experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    headers: list
    rows: list
    notes: str = ""

    def _dict_rows(self) -> list[dict]:
        rows = []
        for row in self.rows:
            if isinstance(row, dict):
                rows.append({str(header): _jsonable(row.get(header))
                             for header in self.headers})
            else:
                rows.append({str(header): _jsonable(value)
                             for header, value in zip(self.headers, row)})
        return rows

    def numeric_summary(self) -> dict:
        """Mean of every numeric column -- the per-experiment perf summary."""

        sums: dict[str, list] = {}
        for row in self._dict_rows():
            for key, value in row.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    sums.setdefault(key, []).append(float(value))
        return {key: sum(values) / len(values) for key, values in sums.items()}

    def sim_ms_summary(self) -> dict:
        """Mean of the simulated-millisecond columns only (``*_ms`` etc.)."""

        return {key: mean for key, mean in self.numeric_summary().items()
                if key.endswith("_ms") or key.endswith("_pct")
                or "per_sim_s" in key or key.startswith("speedup")}

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": [str(header) for header in self.headers],
            "rows": self._dict_rows(),
            "sim_ms": self.sim_ms_summary(),
            "notes": self.notes,
        }

    def as_text(self) -> str:
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"paper claim: {self.paper_claim}",
            format_table(self.headers, self.rows),
        ]
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    def as_markdown(self) -> str:
        lines = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"**Paper claim.** {self.paper_claim}",
            "",
            format_table(self.headers, self.rows, markdown=True),
        ]
        if self.notes:
            lines.extend(["", f"**Notes.** {self.notes}"])
        return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: list, rows: list, markdown: bool = False) -> str:
    """Format *rows* (sequences or dicts) under *headers* as an aligned table."""

    normalized = []
    for row in rows:
        if isinstance(row, dict):
            normalized.append([_cell(row.get(header, "")) for header in headers])
        else:
            normalized.append([_cell(value) for value in row])
    header_cells = [str(header) for header in headers]
    widths = [len(cell) for cell in header_cells]
    for row in normalized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render(cells: list[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        if markdown:
            return "| " + " | ".join(padded) + " |"
        return "  ".join(padded)

    lines = [render(header_cells)]
    if markdown:
        lines.append("|" + "|".join("-" * (width + 2) for width in widths) + "|")
    else:
        lines.append("  ".join("-" * width for width in widths))
    lines.extend(render(row) for row in normalized)
    return "\n".join(lines)
