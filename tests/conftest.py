import importlib.util
import pathlib
import sys

import pytest

from mvdatalog.lang import parse_program
from mvdatalog.kb import (BackgroundKnowledge, build_kb, parse_phi_file,
                          parse_proximity_file)

DATA = pathlib.Path(__file__).parent / "data"
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def load_workloads():
    """The benchmark's workload module, benchmarks/workloads.py."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_program(name: str, safety: str = "strict"):
    return parse_program(read(name), safety=safety)


def load_kb(program_name, prox_name=None, phi_name=None, safety="strict"):
    program = load_program(program_name, safety)
    bk = BackgroundKnowledge.empty()
    if prox_name:
        term_prox, pred_prox, _ = parse_proximity_file(read(prox_name))
        bk = BackgroundKnowledge(term_prox, pred_prox)
    phi = parse_phi_file(read(phi_name)) if phi_name else None
    return build_kb(program, bk, phi)


@pytest.fixture
def ex1():
    return load_program("ex1.mvd", safety="paper-examples")


@pytest.fixture
def ex12i():
    return load_program("ex12i.mvd")


@pytest.fixture
def ex12b():
    return load_program("ex12b.mvd")


@pytest.fixture
def ex23_kb():
    return load_kb("ex23.mvd", "ex23.prox", "ex23.phi")


@pytest.fixture
def ex17_kb():
    return load_kb("ex17.mvd", "ex17.prox", "ex17.phi")
