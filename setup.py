"""Legacy shim: offline environments lack the wheel package that
PEP 517 editable installs require; this enables `pip install -e .`
via the setuptools fallback path.

The src layout is configured here (not auto-discovered): `pip
install .` must put every `repro.*` subpackage on the path so the
CLIs (`python -m repro.experiments`, `repro.campaign`, `repro.bench`)
work without `PYTHONPATH=src` — CI's packaging-smoke job runs exactly
that."""

from setuptools import find_packages, setup

setup(
    name="repro-clementi-mps09",
    version="0.5.0",
    description=("Reproduction of flooding-time bounds on stationary "
                 "Markovian evolving graphs (IPDPS 2009)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The schemas are data, not code: an installed wheel must carry
    # both migration chains or every ResultStore/HistoryStore open
    # fails.
    package_data={"repro.campaign.migrations": ["*.sql"],
                  "repro.obs.migrations": ["*.sql"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy", "networkx"],
)
