"""Start of a CLI process, before numpy loads: `python -m qfoliation.cli` calls
`one_blas_thread` at the top of `cli`, and the console script runs `main`.
No import of a package module changes the environment."""

import os


def one_blas_thread() -> None:
    """Have OpenBLAS start one thread unless the user set a variable that it reads
    for its count: extra BLAS threads speed up no command on two-level models,
    and an idle one spins for about 120 ms of CPU after numpy loads."""
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    """The `qfoliation` console script."""
    one_blas_thread()
    from .cli import main as cli_main

    return cli_main()
