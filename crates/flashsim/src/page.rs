//! Per-page lifecycle state.

/// Lifecycle state of a flash page.
///
/// Pages move `Free → Valid` on program, `Valid → Invalid` when the layer
/// above supersedes or discards their content, and back to `Free` when their
/// block is erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageState {
    /// Erased and programmable.
    #[default]
    Free,
    /// Programmed and holding live content.
    Valid,
    /// Programmed but superseded; reclaimable by erasing the block.
    Invalid,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_page_is_free() {
        assert_eq!(PageState::default(), PageState::Free);
    }
}
