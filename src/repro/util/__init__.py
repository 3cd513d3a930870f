"""Small shared utilities: LSNs and DataLinks URL handling."""

from repro.util.lsn import LSN
from repro.util.urls import DatalinkURL, format_url, parse_url

__all__ = [
    "LSN",
    "DatalinkURL",
    "format_url",
    "parse_url",
]
