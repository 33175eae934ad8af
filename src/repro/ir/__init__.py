"""repro.ir — the LLVM-like intermediate representation.

This package is the substrate the AutoPhase reproduction stands on: typed
values, SSA-capable instructions, basic blocks, functions and modules,
plus an IRBuilder, region cloning, a printer and a verifier.
"""

from . import types
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    Type,
    VoidType,
    array_type,
    f64,
    function_type,
    i1,
    i8,
    i16,
    i32,
    i64,
    int_type,
    pointer_type,
    void,
)
from .values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)
from .instructions import (
    AllocaInst,
    BinaryOperator,
    BranchInst,
    CallBase,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
    Instruction,
    InvokeInst,
    LoadInst,
    PhiNode,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .module import BasicBlock, Function, Module
from .builder import IRBuilder
from .cloning import clone_blocks, clone_instruction, clone_module
from .printer import function_to_str, module_to_str
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "types",
    # types
    "Type", "VoidType", "IntType", "FloatType", "PointerType", "ArrayType", "FunctionType",
    "void", "i1", "i8", "i16", "i32", "i64", "f64",
    "int_type", "float_type", "pointer_type", "array_type", "function_type",
    # values
    "Value", "Constant", "ConstantInt", "ConstantFloat", "UndefValue", "Argument", "GlobalVariable",
    # instructions
    "Instruction", "BinaryOperator", "FNegInst", "ICmpInst", "FCmpInst", "SelectInst",
    "AllocaInst", "LoadInst", "StoreInst", "GEPInst", "CallBase", "CallInst", "CastInst", "PhiNode",
    "ReturnInst", "BranchInst", "SwitchInst", "InvokeInst", "UnreachableInst",
    # containers
    "BasicBlock", "Function", "Module",
    # tools
    "IRBuilder", "clone_blocks", "clone_instruction", "clone_module",
    "function_to_str", "module_to_str",
    "VerificationError", "verify_function", "verify_module",
]

from .types import float_type  # noqa: E402  (re-export)
