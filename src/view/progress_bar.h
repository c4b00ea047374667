/**
 * @file
 * ProgressBar, mirroring android.widget.ProgressBar. Table 1 migration
 * policy: setProgress.
 *
 * Reproduces the "percentage set by the user is lost" issue of
 * DiskDiggerPro (Table 3 #9) and the "zoom bar"/"volume bar" losses in
 * the top-100 study (Table 5 #22, #57).
 */
#ifndef RCHDROID_VIEW_PROGRESS_BAR_H
#define RCHDROID_VIEW_PROGRESS_BAR_H

#include <string>

#include "view/view.h"

namespace rchdroid {

/**
 * Indicates progress of an operation.
 */
class ProgressBar : public View
{
  public:
    explicit ProgressBar(std::string id);

    const char *typeName() const override { return "ProgressBar"; }

    int progress() const { noteSharedRead(); return progress_; }
    int max() const { return max_; }

    /** Clamp to [0, max]; invalidates on change. */
    void setProgress(int progress);
    void setMax(int max);

    void applyMigration(View &target) const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    int progress_ = 0;
    int max_ = 100;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_PROGRESS_BAR_H
