"""Small shared utilities: id generation, LSNs and DataLinks URL handling."""

from repro.util.ids import IdGenerator
from repro.util.lsn import LSN
from repro.util.urls import DatalinkURL, format_url, parse_url

__all__ = [
    "IdGenerator",
    "LSN",
    "DatalinkURL",
    "format_url",
    "parse_url",
]
