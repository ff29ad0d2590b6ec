"""Setuptools shim; all project metadata lives in ``setup.cfg``.

``pip install -e .`` needs the ``wheel`` package.  Where it is missing
(an offline machine), ``python setup.py develop`` installs the package and
its ``repro`` console script in development mode instead.
"""

from setuptools import setup

setup()
