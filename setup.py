"""Package metadata for ``pip install -e .`` and ``python setup.py``.

The offline environment lacks the ``wheel`` package, so PEP 517/660
editable builds fail; a plain ``setup.py`` lets ``pip install -e .``
fall back to the legacy ``setup.py develop`` path.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="greenfpga",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["audit/baseline.json"]},
    install_requires=["numpy"],
    entry_points={"console_scripts": ["greenfpga = repro.cli:main"]},
)
