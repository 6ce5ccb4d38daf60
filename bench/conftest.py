import paths

paths.use_checkout_src()
