"""Setuptools shim.

The execution environment ships setuptools without the ``wheel`` package and
has no network access, so PEP 660 editable installs are unavailable; this
shim lets ``pip install -e .`` fall back to the legacy ``setup.py develop``
path.  There is no ``pyproject.toml``: this file is the project metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of 'Database Managed External File Update' "
                "(DataLinks) on a deterministic simulated-time kernel",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
