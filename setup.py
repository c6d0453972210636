from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "sumsetchains._kernel",
            ["src/sumsetchains/_kernel.c"],
            extra_compile_args=["-O3"],
        )
    ]
)
