// Fixture: manifest entries that match nothing. The wire scope for this
// file names `decode`, which is here, `renamed`, which is not, and
// `probe`, which only test code defines; a second scope and the
// atomics list also name `moved_away.rs`, which is not scanned.
fn decode(buf: &[u8]) -> Option<u8> {
    buf.first().copied()
}

#[cfg(test)]
mod tests {
    fn probe() {}
}
