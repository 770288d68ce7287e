from checkout import use_checkout_sources

use_checkout_sources()
