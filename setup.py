"""Legacy setup shim.

The offline build environment lacks the ``wheel`` package, so PEP 660
editable installs cannot run; this file lets ``pip install -e .`` fall back to
``setup.py develop``.  There is no pyproject.toml: the package metadata is
the ``setup()`` call below, and dependencies are not declared.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
