"""Package metadata for ``repro``, the MinoanER reproduction.

All metadata lives here; there is no ``pyproject.toml``.  The version
is read from ``src/repro/__init__.py`` without importing the package.
Without ``wheel`` (setuptools 65.5 cannot build a PEP 660 editable wheel
then), install through the legacy develop path::

    python setup.py develop
    repro components
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version() -> str:
    """``__version__`` of ``src/repro/__init__.py``."""
    path = os.path.join(HERE, "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="MinoanER: progressive entity resolution in the Web of Data",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.datasets": ["data/*.nt", "data/*.ttl", "data/*.csv"]},
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
