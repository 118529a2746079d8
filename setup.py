"""Setup shim: enables `pip install -e .` on environments without the
`wheel` package (PEP 660 editable builds need bdist_wheel; the legacy
`setup.py develop` path does not)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Stable and Consistent Membership at Scale with "
        "Rapid' (USENIX ATC 2018)"
    ),
    license="Apache-2.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
