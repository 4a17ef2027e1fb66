"""Build shim: all real metadata lives in pyproject.toml.

Kept so ``python setup.py develop`` (and ``pip install -e .
--no-use-pep517``) works on offline machines without the ``wheel``
package.
"""

from setuptools import setup

setup()
