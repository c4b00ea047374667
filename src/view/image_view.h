/**
 * @file
 * ImageView: displays a drawable, mirroring android.widget.ImageView.
 * Table 1 migration policy: setDrawable.
 *
 * The §5.1 benchmark apps are "a set of ImageViews and a Button"; an
 * AsyncTask later replaces each ImageView's drawable — the update the
 * lazy migrator must carry from the shadow tree to the sunny tree.
 */
#ifndef RCHDROID_VIEW_IMAGE_VIEW_H
#define RCHDROID_VIEW_IMAGE_VIEW_H

#include <optional>
#include <string>

#include "resources/resource_table.h"
#include "view/view.h"

namespace rchdroid {

/**
 * A widget that renders one bitmap drawable.
 */
class ImageView : public View
{
  public:
    explicit ImageView(std::string id);

    const char *typeName() const override { return "ImageView"; }

    /** The decoded drawable currently shown, if any. */
    const std::optional<DrawableValue> &drawable() const { return drawable_; }

    /** Replace the shown drawable; invalidates. */
    void setDrawable(DrawableValue drawable);

    /**
     * Install a drawable resolved from a resource (inflater use). Like
     * TextView's resource text, it is configuration-derived: excluded
     * from snapshots/migration so a new instance decodes the variant
     * matching its own configuration (drawable-land vs -port).
     */
    void setDrawableFromResource(DrawableValue drawable);
    bool isDrawableFromResource() const { return drawable_from_resource_; }

    /** Drop the drawable (e.g. trimMemory); invalidates. */
    void clearDrawable();

    /** Asset name, or "" when empty (trace/diff helper). */
    std::string assetName() const;

    void applyMigration(View &target) const override;
    std::size_t memoryFootprintBytes() const override;
    std::size_t drawableBytes() const override
    { return drawable_ ? drawable_->byteSize() : 0; }

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    std::optional<DrawableValue> drawable_;
    bool drawable_from_resource_ = false;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_IMAGE_VIEW_H
