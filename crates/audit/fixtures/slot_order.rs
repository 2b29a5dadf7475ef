// Fixture: walks of an `IdMap` in slot order. The order follows the
// map's operation history, so it must not reach an output unannotated.
use crate::idmap::IdMap;

fn first_seen(map: &IdMap<u32>) -> Option<u32> {
    // Whichever item sits in slot 0 — an order leak.
    map.iter_unordered().next().map(|&(_, v)| v)
}

fn sorted_values(map: &IdMap<u32>) -> Vec<u32> {
    // audit: ordered — sorted before it is returned
    let mut all: Vec<u32> = map.iter_unordered().map(|&(_, v)| v).collect();
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    fn in_a_test(map: &IdMap<u32>) -> usize {
        map.iter_unordered().count()
    }
}
