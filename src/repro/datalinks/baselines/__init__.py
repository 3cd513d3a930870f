"""Alternative file-update schemes from Section 3 of the paper.

These are the comparison points for update-in-place:

* :mod:`~repro.datalinks.baselines.cico` -- check-in/check-out, where the
  DBMS records an explicit long-lived lock per checked-out file;
* :mod:`~repro.datalinks.baselines.cau` -- copy-and-update, where every
  application works on a private copy and consistency is the application's
  problem (lost updates included);
* :mod:`~repro.datalinks.baselines.blob_store` -- the Oracle iFS / Informix
  IXFS alternative of storing file content in database LOBs.
"""

from repro.datalinks.baselines.cico import CheckInCheckOutManager
from repro.datalinks.baselines.cau import CopyAndUpdateManager
from repro.datalinks.baselines.blob_store import BlobFileStore

__all__ = [
    "CheckInCheckOutManager",
    "CopyAndUpdateManager",
    "BlobFileStore",
]
